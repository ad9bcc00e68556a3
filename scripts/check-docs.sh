#!/usr/bin/env bash
# check-docs.sh: keep the prose honest. The README and the ADRs name CLI
# flags and exported Go identifiers; when a refactor removes or renames one,
# the docs silently rot. This check fails CI when documentation references
# something the source no longer defines:
#
#   1. every backtick-quoted `-flag` in README.md / docs/ must be registered
#      by some command under cmd/ (flag.String/Bool/... call), and
#   2. every backtick-quoted dotted identifier (`remote.ServerOptions`,
#      `history.Merge`, ...) must have each exported segment present as a
#      word somewhere in the Go sources, and
#   3. every `*.md` file named in a Go comment, README.md or docs/ must
#      exist in the repository (a path, or a name relative to the citing
#      document: some file's path must end with it).
#
# Checks 1 and 2 look only at backtick-quoted inline code — prose hyphens and shell
# transcripts stay free-form. The check is intentionally one-directional:
# undocumented flags are fine, documented-but-gone flags are not.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md)
while IFS= read -r f; do docs+=("$f"); done < <(find docs -name '*.md' | sort)

fail=0

# 1. Documented flags must exist. Flag registrations look like
#    fs.Bool("freeze-epoch", ...) / fs.Duration("kill-down", ...).
defined_flags=$(grep -rhoE '\.[A-Za-z0-9]+\("[a-z][a-z0-9-]*"' cmd/*/main.go |
    grep -oE '"[a-z][a-z0-9-]*"' | tr -d '"' | sort -u)
doc_flags=$(grep -hoE '`-[a-z][a-z0-9-]*`' "${docs[@]}" |
    tr -d '\`' | sed 's/^-//' | sort -u)
for f in $doc_flags; do
    if ! grep -qx "$f" <<<"$defined_flags"; then
        echo "docs reference flag \`-$f\` but no command under cmd/ defines it" >&2
        grep -ln -- "\`-$f\`" "${docs[@]}" >&2
        fail=1
    fi
done

# 2. Documented identifiers must exist: each CamelCase segment of a
#    backticked dotted token must appear as a word in the Go sources.
doc_idents=$(grep -hoE '`[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*)+`' "${docs[@]}" |
    tr -d '\`' | sort -u)
for ident in $doc_idents; do
    case "$ident" in
    *.go | *.md | *.sh | *.json | *.yml) continue ;; # file names, not identifiers
    esac
    IFS='.' read -ra segs <<<"$ident"
    for seg in "${segs[@]}"; do
        case "$seg" in [a-z]*) continue ;; esac # package names / fields in prose
        if ! grep -rqw --include='*.go' "$seg" .; then
            echo "docs reference \`$ident\` but \`$seg\` appears nowhere in the Go sources" >&2
            grep -ln -- "$ident" "${docs[@]}" >&2
            fail=1
        fi
    done
done

# 3. Cited Markdown files must exist. Go comments are the text after the
#    first // of a line; a URL's path is not a repository file.
md_files=$(find . -name '*.md' -not -path './.git/*' | sed 's#^\./##')
cited_md=$({
    find . -name '*.go' -not -path './.git/*' -exec awk '{ i = index($0, "//"); if (i) print substr($0, i + 2) }' {} +
    cat "${docs[@]}"
} | grep -oE '(^|[^A-Za-z0-9_./:-])[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' |
    sed -E 's#^[^A-Za-z0-9_./-]##; s#^(\.\.?/)+##' | sort -u)
for md in $cited_md; do
    if ! grep -qE "(^|/)${md//./\\.}\$" <<<"$md_files"; then
        echo "\`$md\` is cited but no such file exists in the repository" >&2
        grep -rl --include='*.go' -- "$md" . >&2 || true
        grep -l -- "$md" "${docs[@]}" >&2 || true
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "doc check failed: update the documentation (or restore the symbol)" >&2
    exit 1
fi
echo "doc check: OK (${#docs[@]} files, $(wc -w <<<"$doc_flags") flags, $(wc -w <<<"$doc_idents") identifiers, $(wc -w <<<"$cited_md") cited Markdown files)"
