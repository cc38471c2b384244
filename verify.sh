#!/bin/sh
# Tier-1 verification: build, vet, typed atomics, tests, the benchmark module,
# the oracle, the perf gate and the race matrix.
# ROADMAP.md's quality bar is "./verify.sh passes at every commit".
set -eu
cd "$(dirname "$0")"
start=$(date +%s)

# leg KEY TITLE opens a leg: it closes the previous one into $legs as
# "KEY Ns" and prints the leg's header.
legs=""
leg_key=""
leg_start=$start
leg() {
    now=$(date +%s)
    if [ -n "$leg_key" ]; then
        legs="$legs${legs:+, }$leg_key $((now - leg_start))s"
    fi
    leg_key=$1
    leg_start=$now
    [ -z "${2:-}" ] || echo "== $2 =="
}

leg build "go build"
go build ./...

leg vet "go vet"
go vet ./...

leg atomics "typed atomics"
# Every word written concurrently is a typed sync/atomic value, so mixing
# atomic and plain access to one does not compile and go vet rejects a copy.
# A sync/atomic package function takes an untyped word, which neither check
# sees, so none may appear outside the tests and the benchmark module.
if grep -rnE 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)\(' \
    --include='*.go' . | grep -v '_test\.go' | grep -Ev '^\./(benchmark|\.bench_build)/'; then
    echo "verify: sync/atomic package functions above; use the typed atomics" >&2
    exit 1
fi

leg doclinks "doc links"
# Every SOMETHING.md referenced from the entry-point docs must exist —
# stale pointers in README/ROADMAP are how contracts rot (SERVING.md,
# OBSERVABILITY.md, LINTING.md, DESIGN.md, EXPERIMENTS.md, ...).
for doc in $(grep -oh '[A-Z][A-Z_]*\.md' README.md ROADMAP.md | sort -u); do
    if [ ! -f "$doc" ]; then
        echo "verify: $doc is referenced from README.md/ROADMAP.md but does not exist" >&2
        exit 1
    fi
done
# Likewise every command the user-facing docs tell a reader to run.
cmddocs="README.md DESIGN.md SERVING.md OBSERVABILITY.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
for cmd in $(grep -ohE 'cmd/[a-z][a-z0-9-]*' $cmddocs | sort -u); do
    if [ ! -d "$cmd" ]; then
        echo "verify: $cmd is named in $cmddocs but does not exist" >&2
        exit 1
    fi
done

leg test "go test"
# -shuffle=on randomizes test (and fixture) execution order each run, so
# any inter-test state dependence surfaces here instead of in CI roulette.
go test -shuffle=on ./...

leg benchmod "benchmark module (vet + tests)"
# benchmark/ is a module of its own (BENCHMARK.json's driver), so the legs
# above never compile it; it builds against exported names of internal/core,
# internal/systems and the facade, and this leg is what notices when one goes.
(cd benchmark && go vet ./... && go test ./...)

leg smoke "benchmark smoke (BENCHMARK.json's four workloads, tiny scale)"
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

leg telemetry "serve e2e telemetry archive"
# Re-run the deterministic serving session with its telemetry snapshot
# archived under results/ — the `serving` section SERVING.md §8 audits.
# The session is deterministic, so the snapshot must regenerate exactly as
# committed: a difference fails the leg until it is re-committed on purpose.
tmp=$(mktemp -d)
cp results/serve-telemetry.json "$tmp/committed.json"
GLIGN_SERVE_TELEMETRY_OUT="$PWD/results/serve-telemetry.json" \
    go test ./internal/serve/ -run TestServeEndToEndSession -count=1
test -s results/serve-telemetry.json
if ! diff -u "$tmp/committed.json" results/serve-telemetry.json; then
    rm -rf "$tmp"
    echo "verify: results/serve-telemetry.json differs from the committed file (diff above);" \
        "if the change is intended, review it and commit the regenerated file" >&2
    exit 1
fi
rm -rf "$tmp"

leg oracle "benchmark-validity oracle"
# Certify every kernel (monotone + convergence) x {Glign, Ligra-S} x both
# graph families against the first-principles invariants of internal/oracle
# and archive the certification report — EXPERIMENTS.md's validity section.
# The leg fails on any invariant violation or dataset sanity failure.
GLIGN_ORACLE_OUT="$PWD/results/oracle-report.json" \
    go test . -run TestOracleHarness -count=1
test -s results/oracle-report.json

leg perfgate "measured-performance gate"
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

leg race "go test -race (concurrent packages)"
# Every package that runs a par worker (align, baselines, core, frontier,
# graph, sched), since a worker writes shared state only through the monotone
# atomic relaxation and a captured write shows up here as a race; and every
# other package with worker-pool or CAS concurrency (par, queries, serve,
# telemetry). That covers the internal/core stress test (concurrent batches
# x GOMAXPROCS 1/2/8), the Jacobi evaluator (internal/core, its kernels in
# internal/queries), the baselines (internal/baselines: Congra's concurrent
# one-query batches over one pool and one arena, Query-Parallel's per-query
# evaluations on pool workers), the hub profile's BFS and hop fill
# (internal/align), the live serving loop's deterministic-clock suite
# (internal/serve, now including the convergence/KHop e2e), and glign-serve's
# HTTP handlers (cmd/glign-serve), which drive a live server from handler
# goroutines. The goroutine leak tests of par, core, serve and graph run here
# too.
# internal/engine is a serial oracle and has no concurrency of its own.
# internal/graph runs with -short in a call of its own: its R-MAT generator
# converts the random stream to edges on par workers while a goroutine of
# its own draws the stream, which every Tiny graph and its leak test drive;
# the pinned hashes of the larger graphs stay in the go test leg.
# TestEngineGolden walks the serial traced models only, so it has nothing for
# the race detector to check; it runs in the go test leg.
go test -race -skip '^TestEngineGolden$' \
    ./cmd/glign-serve/ \
    ./internal/align/ \
    ./internal/baselines/ \
    ./internal/core/ \
    ./internal/frontier/ \
    ./internal/par/ \
    ./internal/queries/ \
    ./internal/sched/ \
    ./internal/serve/ \
    ./internal/telemetry/
go test -race -short ./internal/graph/
# The facade's one concurrency contract: Run from several goroutines on one
# Runtime (shared lazily built profile, shared batch arena), oracle-checked.
go test -race -run 'TestRuntimeConcurrentRuns' .

leg ""
echo "verify: OK"

# What every PR reports without hand counting: the measure ROADMAP item 6
# states its target in — Go code lines (non-blank, not a // comment) outside
# tests, testdata and the benchmark module — and this script's wall time,
# after each leg's seconds.
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
    ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
    xargs -0 cat | grep -cv '^[[:space:]]*\(//.*\)\?$')
echo "== legs == $legs"
echo "== size == $lines Go code lines outside tests, testdata and benchmark/; verify.sh took $(($(date +%s) - start))s"
