package engine_test

// Single-query evaluation, pinned to the paper's Tables 1 and 2 and to the
// serial oracle. A single query is a batch of one on internal/core's Drive —
// Ligra-S runs every query so, and Glign-Intra at B=1 is the same loop — and
// each test runs both.

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/queries"
)

var singleQueryEngines = []core.Engine{core.LigraS, core.GlignIntra}

// runOne evaluates q as a one-query batch of e.
func runOne(t testing.TB, e core.Engine, g *graph.Graph, q queries.Query, opt core.Options) *core.BatchResult {
	t.Helper()
	res, err := e.Run(g, []queries.Query{q}, opt)
	if err != nil {
		t.Fatalf("%s: %v", e.Name(), err)
	}
	return res
}

// Table 1 of the paper: sssp(v1) on the Figure 3 graph.
func TestPaperTable1SSSPValues(t *testing.T) {
	g := graph.PaperExample()
	q := queries.Query{Kernel: queries.SSSP, Source: 0}
	want := []queries.Value{0, 17, 4, 12, 5, 7, 6, 22, 10}
	if got := engine.ReferenceRun(g, q); !slices.Equal(got, want) {
		t.Fatalf("oracle: dist = %v, want %v", got, want)
	}
	for _, e := range singleQueryEngines {
		res := runOne(t, e, g, q, core.Options{})
		if got := res.QueryValues(0); !slices.Equal(got, want) {
			t.Fatalf("%s: dist = %v, want %v", e.Name(), got, want)
		}
		// Table 1 shows frontiers for iterations 0..4 then empty: 5 EdgeMap
		// rounds.
		if res.GlobalIterations != 5 {
			t.Fatalf("%s: iterations = %d, want 5", e.Name(), res.GlobalIterations)
		}
		if want := []int{1, 1, 4, 2, 1}; !slices.Equal(res.UnionFrontierSizes, want) {
			t.Fatalf("%s: frontier sizes = %v, want %v", e.Name(), res.UnionFrontierSizes, want)
		}
	}
}

// Table 2 frontier sizes for sssp(v2) and sssp(v8).
func TestPaperTable2FrontierSizes(t *testing.T) {
	g := graph.PaperExample()
	for _, e := range singleQueryEngines {
		for src, want := range map[graph.VertexID][]int{1: {1, 2, 4, 1}, 7: {1, 1, 2, 2, 3, 1}} {
			res := runOne(t, e, g, queries.Query{Kernel: queries.SSSP, Source: src}, core.Options{})
			if !slices.Equal(res.UnionFrontierSizes, want) {
				t.Fatalf("%s: sssp(v%d) frontier sizes = %v, want %v", e.Name(), src+1, res.UnionFrontierSizes, want)
			}
		}
	}
}

func TestBFSOnPaperExample(t *testing.T) {
	g := graph.PaperExample()
	q := queries.Query{Kernel: queries.BFS, Source: 0}
	want := []queries.Value{0, 3, 1, 2, 2, 2, 2, 4, 3}
	if got := engine.ReferenceRun(g, q); !slices.Equal(got, want) {
		t.Fatalf("oracle: levels = %v, want %v", got, want)
	}
	for _, e := range singleQueryEngines {
		if got := runOne(t, e, g, q, core.Options{}).QueryValues(0); !slices.Equal(got, want) {
			t.Fatalf("%s: levels = %v, want %v", e.Name(), got, want)
		}
	}
}

func TestUnreachableStaysIdentity(t *testing.T) {
	// v1 has no in-edges, so from v2 it must remain at identity.
	g := graph.PaperExample()
	q := queries.Query{Kernel: queries.SSSP, Source: 1}
	if got := engine.ReferenceRun(g, q)[0]; !math.IsInf(got, 1) {
		t.Fatalf("oracle: dist(v1) = %v, want +Inf", got)
	}
	for _, e := range singleQueryEngines {
		if got := runOne(t, e, g, q, core.Options{}).Value(0, 0); !math.IsInf(got, 1) {
			t.Fatalf("%s: dist(v1) = %v, want +Inf", e.Name(), got)
		}
	}
}

// checkReference holds a one-query batch of e to the oracle, bit for bit.
func checkReference(t *testing.T, e core.Engine, g *graph.Graph, q queries.Query, opt core.Options) bool {
	t.Helper()
	got := runOne(t, e, g, q, opt).QueryValues(0)
	return slices.Equal(got, engine.ReferenceRun(g, q))
}

func TestAllKernelsMatchReferenceOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		cfg := graph.DefaultRMAT(8, 6, int64(100+trial))
		cfg.Directed = trial%2 == 0
		g := graph.GenerateRMAT(cfg)
		src := graph.VertexID(rng.Intn(g.NumVertices()))
		for _, k := range queries.All() {
			for _, e := range singleQueryEngines {
				if !checkReference(t, e, g, queries.Query{Kernel: k, Source: src}, core.Options{}) {
					t.Fatalf("trial %d %s %s src=%d: values differ from the oracle's", trial, e.Name(), k.Name(), src)
				}
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	q := queries.Query{Kernel: queries.SSSP, Source: 7}
	for _, e := range singleQueryEngines {
		serial := runOne(t, e, g, q, core.Options{Workers: 1}).QueryValues(0)
		parallel := runOne(t, e, g, q, core.Options{Workers: 8}).QueryValues(0)
		if !slices.Equal(serial, parallel) {
			t.Fatalf("%s: serial and parallel values differ", e.Name())
		}
	}
}

func TestMaxIterationsTruncates(t *testing.T) {
	g := graph.PaperExample()
	for _, e := range singleQueryEngines {
		res := runOne(t, e, g, queries.Query{Kernel: queries.SSSP, Source: 0}, core.Options{MaxIterations: 2})
		if res.GlobalIterations != 2 {
			t.Fatalf("%s: iterations = %d, want 2", e.Name(), res.GlobalIterations)
		}
		// v8 is 4 hops out; must still be at identity.
		if got := res.Value(0, 7); !math.IsInf(got, 1) {
			t.Fatalf("%s: dist(v8) = %v after 2 iterations", e.Name(), got)
		}
	}
}

func TestEdgeAndVertexCounters(t *testing.T) {
	g := graph.PaperExample()
	for _, e := range singleQueryEngines {
		res := runOne(t, e, g, queries.Query{Kernel: queries.SSSP, Source: 0}, core.Options{})
		// Iterations process frontiers {v1},{v3},{v4..v7},{v2,v9},{v8}:
		// vertices 1+1+4+2+1 = 9, edges = sum of their out-degrees, and with
		// one query every edge visit is one lane relaxation.
		vertices := 0
		for _, s := range res.UnionFrontierSizes {
			vertices += s
		}
		if vertices != 9 {
			t.Fatalf("%s: vertices processed = %d, want 9", e.Name(), vertices)
		}
		wantEdges := int64(1 + 4 + (2 + 1 + 1 + 1) + (2 + 1) + 1)
		if res.EdgesProcessed != wantEdges || res.LaneRelaxations != wantEdges {
			t.Fatalf("%s: edges %d, lane relaxations %d, want %d each", e.Name(), res.EdgesProcessed, res.LaneRelaxations, wantEdges)
		}
		// Every vertex but the source improves at least once.
		if res.ValueWrites < 8 || res.ValueWrites > wantEdges {
			t.Fatalf("%s: value writes = %d, want 8..%d", e.Name(), res.ValueWrites, wantEdges)
		}
	}
}

func TestTracerReceivesAccesses(t *testing.T) {
	g := graph.PaperExample()
	q := queries.Query{Kernel: queries.SSSP, Source: 0}
	for _, e := range singleQueryEngines {
		var ct memtrace.CountingTracer
		res := runOne(t, e, g, q, core.Options{Tracer: &ct, Workers: 8})
		if ct.Reads == 0 || ct.Writes == 0 {
			t.Fatalf("%s: tracer saw reads=%d writes=%d", e.Name(), ct.Reads, ct.Writes)
		}
		// Tracing must not change results.
		if !slices.Equal(res.QueryValues(0), runOne(t, e, g, q, core.Options{}).QueryValues(0)) {
			t.Fatalf("%s: tracing changed results", e.Name())
		}
		// Writes include one value write + one frontier write per activation:
		// 8 reachable vertices activate at least once.
		if ct.Writes < 16 {
			t.Fatalf("%s: writes = %d, want >= 16", e.Name(), ct.Writes)
		}
	}
}

// Property: on arbitrary random graphs the fixed point of a one-query batch
// equals the oracle's for a random kernel/source (the label-correcting
// equivalence; also exercises the CAS paths under the race detector).
func TestQuickEngineEqualsReference(t *testing.T) {
	kernels := queries.All()
	f := func(seed int64, ki uint8, srcRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		b := graph.NewBuilder(n, rng.Intn(2) == 0, true)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)),
				graph.Weight(1+rng.Intn(16)))
		}
		g := b.MustBuild()
		q := queries.Query{Kernel: kernels[int(ki)%len(kernels)], Source: graph.VertexID(int(srcRaw) % n)}
		for _, e := range singleQueryEngines {
			if !checkReference(t, e, g, q, core.Options{Workers: 4}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
