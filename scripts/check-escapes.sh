#!/usr/bin/env bash
# check-escapes.sh — heap-escape regression gate for the hot-path packages.
#
# Runs the compiler's escape analysis (-gcflags=-m) over internal/core,
# internal/frame, internal/nettcp and remote, normalizes every "escapes to heap" / "moved to heap" diagnostic to
# "file: expression" (dropping line/column, which drift with every edit),
# and diffs the set against scripts/escape-allowlist.txt.
#
# Exit 1 when a NEW escape appears: an allocation crept onto the dispatch or
# round hot path that the allowlist does not bless. Escapes that disappear
# are reported as stale allowlist entries but do not fail the run — prune
# them when convenient. CI runs this as a non-blocking report; locally,
# `make escapes` is the pre-commit check.
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
cd "$root"
allowlist="scripts/escape-allowlist.txt"
pkgs=(./internal/core/ ./internal/frame/ ./internal/nettcp/ ./remote/)

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# -m prints diagnostics for the packages being compiled; force a rebuild so
# cached packages still report.
go build -a -gcflags='-m' "${pkgs[@]}" 2>&1 |
    grep -E 'escapes to heap|moved to heap' |
    sed -E -e 's/^([^:]+):[0-9]+:[0-9]+: (.*) escapes to heap$/\1: \2/' \
        -e 's/^([^:]+):[0-9]+:[0-9]+: (moved to heap: .*)$/\1: \2/' |
    sort -u > "$tmp/current.txt"

grep -vE '^\s*(#|$)' "$allowlist" | sort -u > "$tmp/allowed.txt"

new="$(comm -23 "$tmp/current.txt" "$tmp/allowed.txt" || true)"
stale="$(comm -13 "$tmp/current.txt" "$tmp/allowed.txt" || true)"

if [ -n "$stale" ]; then
    echo "stale allowlist entries (escape no longer occurs — prune when convenient):"
    echo "$stale" | sed 's/^/  /'
    echo
fi

if [ -n "$new" ]; then
    echo "NEW heap escapes on the hot path (not in $allowlist):"
    echo "$new" | sed 's/^/  /'
    echo
    echo "Fix the escape (keep the value on the stack, pool it, or hoist the"
    echo "allocation off the per-op path) or — if it is deliberate — add the"
    echo "line above to $allowlist with a comment saying why."
    exit 1
fi

echo "escape check: $(wc -l < "$tmp/current.txt") known escapes, none new."
