#!/bin/sh
# Tier-1 verification: build, vet, glignlint, tests, race matrix.
# ROADMAP.md's quality bar is "./verify.sh passes at every commit".
set -eu
cd "$(dirname "$0")"
start=$(date +%s)

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== glignlint (concurrency + engine invariants) =="
# The eight project analyzers (atomicmix, doclint, hotalloc, kernelmono,
# nilrecv, parcapture, staleignore, waitjoin); LINTING.md documents each
# invariant. One invocation
# lints the whole module — the linter's own implementation and the command
# tree included, so it holds itself to the invariants it enforces — and
# writes both the machine-readable report archived under results/ and the
# suppression-count snapshot. The committed baseline pins those counts so new
# suppressions show up in review.
if ! go run ./cmd/glignlint -json -write-baseline /tmp/glign-lint-baseline.json ./... \
    > results/lint-report.json; then
    go run ./cmd/glignlint ./... || true # the same findings, readable
    exit 1
fi
if ! diff -u results/lint-baseline.json /tmp/glign-lint-baseline.json; then
    echo "verify: lint baseline drifted; regenerate with" >&2
    echo "  go run ./cmd/glignlint -write-baseline results/lint-baseline.json ./..." >&2
    exit 1
fi
# Every registered analyzer must ship a fixture tree and a golden file —
# an analyzer nothing exercises is an invariant nobody checks.
for a in $(go run ./cmd/glignlint -help-analyzers | awk '{print $1}'); do
    if [ ! -d "cmd/glignlint/testdata/src/$a" ]; then
        echo "verify: analyzer $a has no fixture under cmd/glignlint/testdata/src/" >&2
        exit 1
    fi
    if [ ! -s "cmd/glignlint/testdata/golden/$a.txt" ]; then
        echo "verify: analyzer $a has no non-empty golden under cmd/glignlint/testdata/golden/" >&2
        echo "  (an empty golden means the fixture exercises nothing)" >&2
        exit 1
    fi
done

echo "== doc links =="
# Every SOMETHING.md referenced from the entry-point docs must exist —
# stale pointers in README/ROADMAP are how contracts rot (SERVING.md,
# OBSERVABILITY.md, LINTING.md, DESIGN.md, EXPERIMENTS.md, ...).
for doc in $(grep -oh '[A-Z][A-Z_]*\.md' README.md ROADMAP.md | sort -u); do
    if [ ! -f "$doc" ]; then
        echo "verify: $doc is referenced from README.md/ROADMAP.md but does not exist" >&2
        exit 1
    fi
done

echo "== go test =="
# -shuffle=on randomizes test (and fixture) execution order each run, so
# any inter-test state dependence surfaces here instead of in CI roulette.
go test -shuffle=on ./...

echo "== benchmark module (vet + tests) =="
# benchmark/ is a module of its own (BENCHMARK.json's driver), so the legs
# above never compile it; it builds against exported names of internal/core,
# internal/systems and the facade, and this leg is what notices when one goes.
(cd benchmark && go vet ./... && go test ./...)

echo "== benchmark smoke (BENCHMARK.json's four workloads, tiny scale) =="
# The benchmark itself, end to end, both passes of every workload on tiny
# graphs (~10 s): a warmed Runtime and a live Server evaluate buffer after
# buffer on their batch arenas, every result is held to the oracle, and the
# run exits non-zero on any failed operation. Its table is kept out of the
# log except for the verdict line; it writes nothing into the checkout.
tmp=$(mktemp -d)
if ! (cd benchmark && go run . -smoke -out "$tmp") > "$tmp/smoke.txt" 2>&1; then
    cat "$tmp/smoke.txt"
    rm -rf "$tmp"
    echo "verify: benchmark smoke failed" >&2
    exit 1
fi
grep '^attempted' "$tmp/smoke.txt"
rm -rf "$tmp"

echo "== serve e2e telemetry archive =="
# Re-run the deterministic serving session with its telemetry snapshot
# archived under results/ — the `serving` section SERVING.md §8 audits.
GLIGN_SERVE_TELEMETRY_OUT="$PWD/results/serve-telemetry.json" \
    go test ./internal/serve/ -run TestServeEndToEndSession -count=1
test -s results/serve-telemetry.json

echo "== benchmark-validity oracle =="
# Certify every kernel (monotone + convergence) x {Glign, Ligra-S} x both
# graph families against the first-principles invariants of internal/oracle
# and archive the certification report — EXPERIMENTS.md's validity section.
# The leg fails on any invariant violation or dataset sanity failure.
GLIGN_ORACLE_OUT="$PWD/results/oracle-report.json" \
    go test . -run TestOracleHarness -count=1
test -s results/oracle-report.json

echo "== measured-performance gate =="
# Nine within-run ratio cells (Glign-Intra against Ligra-C, the serial oracle
# and itself with telemetry on), each side's quiet-rep minimum over
# alternating reps, held to the ratios in results/perf-baseline.json at a
# tolerance of 1.2x — EXPERIMENTS.md's "Measured performance" section, ~15 s.
# GLIGN_PERF_SKIP=1 skips the leg.
if [ "${GLIGN_PERF_SKIP:-0}" = "1" ]; then
    echo "verify: perf gate skipped (GLIGN_PERF_SKIP=1)"
else
    go run ./cmd/glign-perfgate
fi

echo "== go test -race (concurrent packages) =="
# Every package with worker-pool or CAS concurrency, including the
# internal/core stress test (concurrent batches x GOMAXPROCS 1/2/8), the
# Jacobi evaluator (internal/core, its kernels in internal/queries), the
# baselines (internal/baselines: Congra's concurrent one-query batches over
# one pool and one arena, Query-Parallel's per-query evaluations on pool
# workers), and the live serving loop's deterministic-clock suite
# (internal/serve, now including the convergence/KHop e2e). internal/engine
# is a serial oracle and has no concurrency of its own.
go test -race \
    ./internal/baselines/ \
    ./internal/core/ \
    ./internal/frontier/ \
    ./internal/par/ \
    ./internal/queries/ \
    ./internal/sched/ \
    ./internal/serve/ \
    ./internal/telemetry/
# The facade's one concurrency contract: Run from several goroutines on one
# Runtime (shared lazily built profile, shared batch arena), oracle-checked.
go test -race -run 'TestRuntimeConcurrentRuns' .

echo "verify: OK"

# What every PR reports without hand counting: the measure ROADMAP item 6
# states its target in — Go code lines (non-blank, not a // comment) outside
# tests, testdata and the benchmark module — and this script's wall time.
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
    ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
    xargs -0 cat | grep -cv '^[[:space:]]*\(//.*\)\?$')
echo "== size == $lines Go code lines outside tests, testdata and benchmark/; verify.sh took $(($(date +%s) - start))s"
