package glign

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/systems"
)

// The differential harness: every evaluation method, on every kernel, on an
// R-MAT-style and a road-style synthetic graph, at one and at four workers,
// must agree element-wise with the serial label-correcting reference. All
// engines compute exact fixed points over monotone kernels, so any mismatch
// is a bug in an engine, the scheduler, or the work-stealing pool — not
// floating-point noise.
//
// Query sources are drawn by a seeded sampler. The base seed defaults to a
// fixed value so CI is reproducible, and can be overridden with
// GLIGN_DIFF_SEED to explore other samples; every failure message carries
// the seed that reproduces it.

// diffBatchSize is the queries-per-case sample size: big enough to exercise
// multi-lane batch layouts, small enough that 220 cases stay fast.
const diffBatchSize = 4

// diffBaseSeed reads the sampler seed (GLIGN_DIFF_SEED overrides the fixed
// default).
func diffBaseSeed(t *testing.T) int64 {
	if s := os.Getenv("GLIGN_DIFF_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("GLIGN_DIFF_SEED=%q: %v", s, err)
		}
		return v
	}
	return 0x91159
}

// caseSeed derives a per-case seed from the base seed and the case name, so
// each case draws an independent reproducible sample.
func caseSeed(base int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", base, name)
	return int64(h.Sum64() >> 1)
}

// repro renders the reproduction context every harness failure message
// carries: the effective base seed (as the GLIGN_DIFF_SEED assignment that
// replays the run) plus the case coordinates.
func repro(base int64, graphName, kernel, method string, workers int) string {
	return fmt.Sprintf("GLIGN_DIFF_SEED=%d graph=%s kernel=%s method=%s workers=%d",
		base, graphName, kernel, method, workers)
}

// sampleSources draws count vertices with a splitmix-style generator seeded
// by the case seed (no math/rand dependence, so the draw is stable across Go
// releases).
func sampleSources(seed int64, n, count int) []graph.VertexID {
	out := make([]graph.VertexID, count)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = graph.VertexID(z % uint64(n))
	}
	return out
}

func TestDifferentialAllMethods(t *testing.T) {
	// One dedicated work-stealing pool shared by every case: the harness
	// proves the persistent pool correct under reuse across hundreds of
	// runs, not just on a fresh pool per run.
	pool := par.NewPool(4)
	defer pool.Close()

	graphsUnderTest := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat-LJ", graph.MustGenerate(graph.LJ, graph.Tiny)},
		{"road-CA", graph.MustGenerate(graph.RDCA, graph.Tiny)},
	}
	kernels := []queries.Kernel{
		queries.BFS, queries.SSSP, queries.SSWP, queries.SSNP, queries.Viterbi,
		queries.KHop(queries.DefaultKHopDepth),
	}
	base := diffBaseSeed(t)

	// The serial reference is method- and worker-independent; cache it per
	// (graph, kernel, source) so the 11-method sweep recomputes nothing.
	type refKey struct {
		gi     int
		kernel string
		src    graph.VertexID
	}
	refCache := map[refKey][]queries.Value{}
	refFor := func(gi int, g *graph.Graph, k queries.Kernel, src graph.VertexID) []queries.Value {
		key := refKey{gi, k.Name(), src}
		if v, ok := refCache[key]; ok {
			return v
		}
		v := oracle.ReferenceRun(g, queries.Query{Kernel: k, Source: src})
		refCache[key] = v
		return v
	}

	for gi, gc := range graphsUnderTest {
		// The alignment profile is a per-graph precompute; building it once
		// keeps the Glign-Inter/Batch/full cases from re-running reverse BFS
		// per case.
		prof := align.NewProfile(gc.g, align.DefaultHubCount, 0)
		for _, k := range kernels {
			for _, workers := range []int{1, 4, 8} {
				for _, method := range Methods() {
					name := fmt.Sprintf("%s/%s/%s/w%d", gc.name, k.Name(), method, workers)
					seed := caseSeed(base, name)
					t.Run(name, func(t *testing.T) {
						ctx := repro(base, gc.name, k.Name(), method, workers)
						srcs := sampleSources(seed, gc.g.NumVertices(), diffBatchSize)
						buffer := make([]queries.Query, len(srcs))
						for i, s := range srcs {
							buffer[i] = queries.Query{Kernel: k, Source: s}
						}
						cfg := systems.Config{
							BatchSize:  diffBatchSize,
							Workers:    workers,
							Pool:       pool,
							Profile:    prof,
							KeepValues: true,
						}
						res, err := systems.Run(method, gc.g, buffer, cfg)
						if err != nil {
							t.Fatalf("run failed: %v [case seed %d, %s]", err, seed, ctx)
						}
						for qi, q := range buffer {
							want := refFor(gi, gc.g, k, q.Source)
							got := res.Values[qi]
							if len(got) != len(want) {
								t.Fatalf("query %d (source v%d): %d values, want %d [case seed %d, %s]",
									qi, q.Source, len(got), len(want), seed, ctx)
							}
							for v := range want {
								if got[v] != want[v] {
									t.Fatalf("query %d (source v%d) disagrees with reference at vertex %d: %v != %v [case seed %d, %s]",
										qi, q.Source, v, got[v], want[v], seed, ctx)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestDifferentialConvergenceKernels is the convergence-paradigm leg of the
// harness: PageRank and LabelProp run through every method with a Jacobi
// route (all but GraphM and Congra, whose engines refuse the paradigm) and
// must be bit-identical to the independent serial Jacobi golden — the
// determinism the max-residual criterion and the in-neighbor fold-order
// contract exist to provide. Every result additionally passes the oracle
// invariants for its kernel.
func TestDifferentialConvergenceKernels(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()

	graphsUnderTest := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat-LJ", graph.MustGenerate(graph.LJ, graph.Tiny)},
		{"road-CA", graph.MustGenerate(graph.RDCA, graph.Tiny)},
	}
	var methods []string
	for _, m := range Methods() {
		if m == systems.GraphM || m == systems.Congra {
			continue
		}
		methods = append(methods, m)
	}
	base := diffBaseSeed(t)

	type refKey struct {
		gi     int
		kernel string
		src    graph.VertexID
	}
	refCache := map[refKey][]queries.Value{}
	refFor := func(gi int, g *graph.Graph, q queries.Query) []queries.Value {
		key := refKey{gi, q.Kernel.Name(), q.Source}
		if v, ok := refCache[key]; ok {
			return v
		}
		v := oracle.GoldenValues(g, q)
		refCache[key] = v
		return v
	}

	for gi, gc := range graphsUnderTest {
		prof := align.NewProfile(gc.g, align.DefaultHubCount, 0)
		for _, ck := range queries.Convergent() {
			k := queries.Kernel(ck)
			for _, workers := range []int{1, 4, 8} {
				for _, method := range methods {
					name := fmt.Sprintf("%s/%s/%s/w%d", gc.name, k.Name(), method, workers)
					seed := caseSeed(base, name)
					t.Run(name, func(t *testing.T) {
						ctx := repro(base, gc.name, k.Name(), method, workers)
						srcs := sampleSources(seed, gc.g.NumVertices(), diffBatchSize)
						buffer := make([]queries.Query, len(srcs))
						for i, s := range srcs {
							buffer[i] = queries.Query{Kernel: k, Source: s}
						}
						res, err := systems.Run(method, gc.g, buffer, systems.Config{
							BatchSize:  diffBatchSize,
							Workers:    workers,
							Pool:       pool,
							Profile:    prof,
							KeepValues: true,
						})
						if err != nil {
							t.Fatalf("run failed: %v [case seed %d, %s]", err, seed, ctx)
						}
						for qi, q := range buffer {
							want := refFor(gi, gc.g, q)
							got := res.Values[qi]
							if len(got) != len(want) {
								t.Fatalf("query %d: %d values, want %d [case seed %d, %s]",
									qi, len(got), len(want), seed, ctx)
							}
							for v := range want {
								if got[v] != want[v] {
									t.Fatalf("query %d (source v%d) disagrees with the Jacobi golden at vertex %d: %v != %v [case seed %d, %s]",
										qi, q.Source, v, got[v], want[v], seed, ctx)
								}
							}
							if vio := oracle.CheckResult(gc.g, q, got); len(vio) != 0 {
								t.Fatalf("query %d violates oracle invariants: %+v [case seed %d, %s]",
									qi, vio, seed, ctx)
							}
						}
					})
				}
			}
		}
	}
}

// viaStep is a built-in convergence kernel behind a type the engines do not
// know: queries.KindOf calls it OpCustom, so a batch of them takes the Step
// path with the built-in's semantics. Step counts its calls.
type viaStep struct {
	queries.ConvergenceKernel
	calls *atomic.Int64
}

func (k viaStep) Step(n int, self queries.Value, nbrs []queries.Value, degs []int32) queries.Value {
	k.calls.Add(1)
	return k.ConvergenceKernel.Step(n, self, nbrs, degs)
}

// homogeneous is b lanes of k from distinct sources.
func homogeneous(k queries.Kernel, b int) []queries.Query {
	batch := make([]queries.Query, b)
	for i := range batch {
		batch[i] = queries.Query{Kernel: k, Source: graph.VertexID(i)}
	}
	return batch
}

// TestFusedJacobiRounds holds homogeneous batches of each built-in
// convergence kernel, run by Glign-Intra's Jacobi evaluator — PageRank's on
// the fused round, LabelProp's on Step — to
// the serial golden bit for bit, at batch widths past one 64-lane word and at
// several worker counts, and to the Step path of the same kernel behind a
// type the evaluator does not know in every counter a batch reports. (It
// lives here, outside the -race legs of verify.sh: the widest batches would
// triple internal/core's; the fused round runs under -race there at narrower
// widths.)
func TestFusedJacobiRounds(t *testing.T) {
	for _, g := range []*graph.Graph{graph.MustGenerate(graph.LJ, graph.Tiny), graph.MustGenerate(graph.RDCA, graph.Tiny)} {
		for _, k := range queries.Convergent() {
			want := oracle.GoldenValues(g, queries.Query{Kernel: k})
			for _, b := range []int{1, 2, 3, 5, 16, 64, 65} {
				t.Run(fmt.Sprintf("%s/%s/B%d", g.Name, k.Name(), b), func(t *testing.T) {
					var calls atomic.Int64
					ref, err := core.GlignIntra.Run(g, homogeneous(viaStep{k, &calls}, b), core.Options{Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					if calls.Load() == 0 {
						t.Fatal("a batch of a kernel the engine does not know made no Step call")
					}
					for _, workers := range []int{1, 2, 4} {
						res, err := core.GlignIntra.Run(g, homogeneous(k, b), core.Options{Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						for i := 0; i < b; i++ {
							for v, wv := range want {
								if got := res.Value(i, graph.VertexID(v)); math.Float64bits(got) != math.Float64bits(wv) {
									t.Fatalf("workers=%d lane %d vertex %d = %v, golden %v", workers, i, v, got, wv)
								}
							}
						}
						checkSameReport(t, res, ref)
					}
				})
			}
		}
	}
}

// checkSameReport fails unless got reports what want does in every counter
// and per-lane convergence field.
func checkSameReport(t *testing.T, got, want *core.BatchResult) {
	t.Helper()
	if got.GlobalIterations != want.GlobalIterations || got.EdgesProcessed != want.EdgesProcessed ||
		got.LaneRelaxations != want.LaneRelaxations || got.ValueWrites != want.ValueWrites {
		t.Fatalf("iterations/edges/relaxations/writes %d/%d/%d/%d, want %d/%d/%d/%d",
			got.GlobalIterations, got.EdgesProcessed, got.LaneRelaxations, got.ValueWrites,
			want.GlobalIterations, want.EdgesProcessed, want.LaneRelaxations, want.ValueWrites)
	}
	for i := range want.LaneRounds {
		if got.LaneRounds[i] != want.LaneRounds[i] || got.LaneConverged[i] != want.LaneConverged[i] ||
			math.Float64bits(got.LaneResiduals[i]) != math.Float64bits(want.LaneResiduals[i]) {
			t.Fatalf("lane %d: rounds/converged/residual %d/%v/%v, want %d/%v/%v", i,
				got.LaneRounds[i], got.LaneConverged[i], got.LaneResiduals[i],
				want.LaneRounds[i], want.LaneConverged[i], want.LaneResiduals[i])
		}
	}
}
