GO ?= go

.PHONY: all build test race bench bench-disk bench-smoke bench-handle bench-namespace escapes smoke verify-mesh kill-mesh fmt vet docs-check ci scenarios

all: build

build:
	$(GO) build ./...

# bench/ is its own module (the deployed-shape benchmark, BENCHMARK.json), so
# the root ./... does not reach its unit tests.
test:
	$(GO) test ./...
	cd bench && $(GO) test -short ./...

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench . -benchtime=1x -run '^$$' ./...

# bench-disk is the microbenchmark for working on internal/stable: the log
# engine's per-record store cost and fsync amortization (BenchmarkWALStore,
# ...Batch; read syncs/op). Claims are made with bash bench/run.sh.
bench-disk:
	$(GO) test -bench 'Store' -benchtime=100x -run '^$$' ./internal/stable/

# bench-smoke checks the benchmark contract before the pipeline does: bench/
# compiles against this tree's internals and recmem-node's flags but is frozen
# outside a [benchmark] PR, so a source PR that renames what it uses breaks
# the run, not the build. All four BENCHMARK.json workloads for 3 s each
# (~35 s); every contract line must read "correct":true and "failed":0.
bench-smoke:
	@out=$$(bash bench/run.sh -seconds 3) || { echo "$$out"; echo "bench-smoke: bench/run.sh failed"; exit 1; }; \
	echo "$$out" | grep '^{"correct"'; \
	n=$$(echo "$$out" | grep '^{"correct":true' | grep -c '"failed":0[,}]'); \
	if [ "$$n" -ne 4 ]; then echo "bench-smoke: $$n of 4 contract lines are correct with failed=0"; exit 1; fi

# bench-handle measures the per-operation register resolution of the
# string-keyed Node API (shard hash + queue-map lookup) against a cached
# RegisterRef, which resolved both once.
bench-handle:
	$(GO) test -bench 'BenchmarkStringLookup|BenchmarkRegisterHandle' -benchtime=1000000x -run '^$$' ./internal/core/

# bench-namespace is the one measurement bash bench/run.sh cannot make yet
# (docs/adr/0014): populate 1k to 1M registers with 25% churn on the wal
# engine, reopen cold, boot a real core.Node over the store
# (docs/adr/0009), and fail on any probe that reads back something else.
# Prints load ops/s, reopen ms, node reopen ms, probe µs and disk MB per row.
bench-namespace:
	$(GO) test -run '^$$' -bench NamespaceReopen -benchtime 1x ./internal/core/

# smoke boots a real 3-node recmem-node mesh and drives it through the
# remote client, then runs the VERIFIED live-mesh torture round (recording
# clients + tag-witness merge + model check, docs/adr/0004), the
# KILL-RESTART round (real SIGKILL + re-exec of node processes mid-run,
# docs/adr/0005), and the stale-node negative control: the CI proof that
# the Client API works — and is verifiably correct — over a live TCP
# deployment that really dies and really recovers.
smoke:
	./scripts/smoke-mesh.sh

# verify-mesh runs only the verification half of the mesh smoke: boot the
# mesh, run `recmem-torture -remote -verify`, and prove a stale-serving
# node fails the check.
verify-mesh:
	SMOKE_VERIFY_ONLY=1 ./scripts/smoke-mesh.sh

# kill-mesh runs only the kill-restart round: recmem-torture spawns a mesh on
# wal disks, SIGKILLs and re-execs real node processes mid-run, and the
# merged recorded history must still pass the atomicity checker.
kill-mesh:
	SMOKE_KILL_ONLY=1 ./scripts/smoke-mesh.sh

# escapes diffs the compiler's escape analysis over the hot-path packages
# (internal/core, internal/frame, internal/nettcp, remote) against
# scripts/escape-allowlist.txt: a new heap escape on the dispatch, round or
# send path fails, locally and in CI.
escapes:
	./scripts/check-escapes.sh

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# docs-check fails when README/ADR prose references CLI flags or exported
# identifiers the source no longer defines — documentation rot is a CI
# failure, not a review nit.
docs-check:
	./scripts/check-docs.sh

# scenarios runs the recorded schedules on the step driver (Figures 1-3, the
# mutants' kills, the orphan and collision schedules), the cluster's recovery
# scenarios, and then the explorer over its full bound, which fails on any
# violation (docs/adr/0027). The nightly CI job runs it.
scenarios:
	$(GO) test -count=1 -run 'Driver|Mutant|Orphan|TagCollision|Explore|Scenario' ./internal/core/ ./internal/cluster/
	$(GO) test -run '^$$' -bench ExploreBoundedSpace -benchtime 1x ./internal/core/

# ci is exactly what .github/workflows/ci.yml runs on every push.
ci: build vet fmt docs-check escapes test bench-smoke
