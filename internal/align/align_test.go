package align

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/queries"
)

func paperTraces(t *testing.T) (*graph.Graph, []*Trace) {
	t.Helper()
	g := graph.PaperExample()
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 1}, // sssp(v2)
		{Kernel: queries.SSSP, Source: 7}, // sssp(v8)
	}
	return g, TraceBatch(g, batch, 1)
}

// Paper §3.3 computes, for the batch [sssp(v2), sssp(v8)] on the Figure 3
// graph: Affinity = 1/9 under I=[0,0] (Table 2 interleaving) and 1/3 under
// I=[2,0] (Table 3 interleaving). Reproduce both numbers exactly.
func TestPaperAffinityValues(t *testing.T) {
	_, traces := paperTraces(t)
	if got := Affinity(traces, []int{0, 0}); math.Abs(got-1.0/9.0) > 1e-12 {
		t.Fatalf("Affinity(I=[0,0]) = %v, want 1/9", got)
	}
	if got := Affinity(traces, []int{2, 0}); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("Affinity(I=[2,0]) = %v, want 1/3", got)
	}
}

// The exhaustive search must discover the paper's I=[2,0] as the optimal
// alignment of that pair.
func TestOptimalAlignmentFindsPaperAlignment(t *testing.T) {
	_, traces := paperTraces(t)
	best, aff := OptimalAlignment(traces, 4)
	if best[0] != 2 || best[1] != 0 {
		t.Fatalf("optimal alignment = %v, want [2,0] (affinity %v)", best, aff)
	}
	if math.Abs(aff-1.0/3.0) > 1e-12 {
		t.Fatalf("optimal affinity = %v, want 1/3", aff)
	}
}

func TestAffinityIdenticalQueries(t *testing.T) {
	g := graph.PaperExample()
	q := queries.Query{Kernel: queries.SSSP, Source: 1}
	traces := TraceBatch(g, []queries.Query{q, q}, 1)
	// Two identical aligned traces: union == each individual frontier, so
	// affinity = 1 - 1/2.
	if got := Affinity(traces, []int{0, 0}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("affinity of identical pair = %v, want 0.5", got)
	}
	// Edge-based variant agrees in this degenerate case.
	if got := AffinityEdges(traces, []int{0, 0}, g); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("edge affinity of identical pair = %v, want 0.5", got)
	}
}

func TestAffinitySingleQueryIsZero(t *testing.T) {
	g := graph.PaperExample()
	traces := TraceBatch(g, []queries.Query{{Kernel: queries.BFS, Source: 0}}, 1)
	if got := Affinity(traces, []int{0}); got != 0 {
		t.Fatalf("single-query affinity = %v, want 0", got)
	}
}

func TestAffinityEmpty(t *testing.T) {
	if Affinity(nil, nil) != 0 {
		t.Fatal("empty batch affinity should be 0")
	}
}

func TestAffinityBounds(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	rng := rand.New(rand.NewSource(21))
	var batch []queries.Query
	for i := 0; i < 6; i++ {
		batch = append(batch, queries.Query{Kernel: queries.SSSP,
			Source: graph.VertexID(rng.Intn(g.NumVertices()))})
	}
	traces := TraceBatch(g, batch, 2)
	for trial := 0; trial < 10; trial++ {
		I := make([]int, len(batch))
		for i := range I {
			I[i] = rng.Intn(5)
		}
		a := Affinity(traces, I)
		// Union >= largest individual frontier, so affinity < 1; it can be
		// negative only through oblivious-evaluation side effects, which
		// trace-based affinity does not model, so >= 0 here... union <=
		// sum of individuals gives affinity >= 0.
		if a < 0 || a >= 1 {
			t.Fatalf("affinity %v out of [0,1)", a)
		}
		ae := AffinityEdges(traces, I, g)
		if ae < 0 || ae >= 1 {
			t.Fatalf("edge affinity %v out of [0,1)", ae)
		}
	}
}

func TestProfilePaperExample(t *testing.T) {
	g := graph.PaperExample()
	p := NewProfile(g, 4, 1)
	if len(p.Hubs) != 4 {
		t.Fatalf("hubs = %v", p.Hubs)
	}
	// v3 (index 2) has the top out-degree, 4.
	if p.Hubs[0] != 2 {
		t.Fatalf("top hub = v%d, want v3", p.Hubs[0]+1)
	}
	// v2 (index 1) is itself a hub (out-degree 2, second-highest).
	if p.ClosestHV[1] != 0 {
		t.Fatalf("closestHV[v2] = %d, want 0 (v2 is a hub)", p.ClosestHV[1])
	}
	// v8 (index 7) reaches hub v4 in one hop.
	if p.ClosestHV[7] != 1 {
		t.Fatalf("closestHV[v8] = %d, want 1", p.ClosestHV[7])
	}
	// With top-4 hubs, v1 is itself the fourth hub (degree-1 ties break by
	// id), so its distance is 0; with top-3 hubs {v3,v2,v4} it reaches v3
	// in one hop.
	if p.ClosestHV[0] != 0 {
		t.Fatalf("closestHV[v1] = %d, want 0", p.ClosestHV[0])
	}
	p3 := NewProfile(g, 3, 1)
	if p3.ClosestHV[0] != 1 {
		t.Fatalf("top-3 closestHV[v1] = %d, want 1", p3.ClosestHV[0])
	}
	if p.PrepTime <= 0 {
		t.Fatal("prep time not recorded")
	}
}

// On an undirected graph NewProfile runs the hub BFS on the graph itself, its
// own reversal; what it finds must be what the BFS finds on an explicit copy.
func TestProfileUndirectedMatchesReversal(t *testing.T) {
	g := graph.MustGenerate(graph.RDCA, graph.Tiny)
	if g.Directed {
		t.Fatal("RD-CA is expected to be undirected")
	}
	p := NewProfile(g, DefaultHubCount, 2)
	if !slices.Equal(p.ClosestHV, closestOracle(g.Reverse(), p.Hubs)) {
		t.Fatal("ClosestHV differs from the one over g.Reverse()")
	}
}

// referenceHops is the hop count from src to every vertex of g by the serial
// oracle's BFS, -1 where there is no path.
func referenceHops(g *graph.Graph, src graph.VertexID) []int32 {
	levels := oracle.ReferenceRun(g, queries.Query{Kernel: queries.BFS, Source: src})
	hops := make([]int32, len(levels))
	for v, l := range levels {
		hops[v] = -1
		if !math.IsInf(l, 1) {
			hops[v] = int32(l)
		}
	}
	return hops
}

// closestOracle is, for every vertex of g, the least of the serial oracle's
// BFS hops from each of srcs, -1 where none reaches it.
func closestOracle(g *graph.Graph, srcs []graph.VertexID) []int32 {
	closest := make([]int32, g.NumVertices())
	for v := range closest {
		closest[v] = -1
	}
	for _, src := range srcs {
		for v, d := range referenceHops(g, src) {
			if d >= 0 && (closest[v] < 0 || d < closest[v]) {
				closest[v] = d
			}
		}
	}
	return closest
}

// The profile's hub BFS and minimum (paper Figure 9 lines 5-7) on the
// Figure 3 graph: from v1, every vertex's BFS level (v1 itself 0, v8 four
// hops out); from v2 alone, v1 — which has no in-edges — unreachable. On
// random graphs, directed or not, at one worker and at four, a batch of
// sources gets the least of the oracle's hops from each.
func TestClosestHopsMatchReference(t *testing.T) {
	g := graph.PaperExample()
	if got, want := closestHops(g, []graph.VertexID{0}, 1), []int32{0, 3, 1, 2, 2, 2, 2, 4, 3}; !slices.Equal(got, want) {
		t.Fatalf("hops from v1 = %v, want %v", got, want)
	}
	if got := closestHops(g, []graph.VertexID{1}, 1); got[0] != -1 {
		t.Fatalf("hops[v1] from v2 = %d, want -1", got[0])
	}
	if got := closestHops(g, nil, 1); !slices.Equal(got, closestOracle(g, nil)) {
		t.Fatalf("hops from no source = %v, want all -1", got)
	}
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 4; trial++ {
		cfg := graph.DefaultRMAT(8, 4, int64(700+trial))
		cfg.Directed = trial%2 == 0
		g := graph.GenerateRMAT(cfg)
		srcs := make([]graph.VertexID, 1+trial)
		for i := range srcs {
			srcs[i] = graph.VertexID(rng.Intn(g.NumVertices()))
		}
		want := closestOracle(g, srcs)
		for _, workers := range []int{1, 4} {
			if !slices.Equal(closestHops(g, srcs, workers), want) {
				t.Fatalf("trial %d, %d workers: closest hops from %v differ from the oracle's", trial, workers, srcs)
			}
		}
	}
}

func TestAlignmentVectorMechanics(t *testing.T) {
	g := graph.PaperExample()
	p := NewProfile(g, 4, 1)
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 1}, // arrival 0 (hub itself)
		{Kernel: queries.SSSP, Source: 7}, // arrival 1
	}
	I := p.AlignmentVector(batch)
	// latest = 1, so the early query is delayed by 1 and the late one by 0.
	if I[0] != 1 || I[1] != 0 {
		t.Fatalf("I = %v, want [1,0]", I)
	}
	// A batch of equal arrivals gets the zero vector.
	same := []queries.Query{
		{Kernel: queries.BFS, Source: 7},
		{Kernel: queries.BFS, Source: 7},
	}
	I = p.AlignmentVector(same)
	if I[0] != 0 || I[1] != 0 {
		t.Fatalf("I = %v, want [0,0]", I)
	}
}

// The heuristic's core claim (paper Table 4): the first activation of a hub
// in a query's actual frontier trace equals the hop distance from source to
// the nearest hub, for every kernel (activation propagates one hop per
// iteration regardless of weights).
func TestHeavyArrivalMatchesClosestHV(t *testing.T) {
	g := graph.MustGenerate(graph.TW, graph.Tiny)
	p := NewProfile(g, 4, 2)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		src := graph.VertexID(rng.Intn(g.NumVertices()))
		for _, k := range []queries.Kernel{queries.BFS, queries.SSSP} {
			tr := TraceQuery(g, queries.Query{Kernel: k, Source: src}, 2)
			got := HeavyArrivalFromTrace(tr, p.Hubs)
			want := int(p.ClosestHV[src])
			if p.ClosestHV[src] < 0 {
				if got != -1 {
					t.Fatalf("%s(v%d): unreachable hubs but arrival %d", k.Name(), src, got)
				}
				continue
			}
			if got != want {
				t.Fatalf("%s(v%d): trace arrival %d != closestHV %d", k.Name(), src, got, want)
			}
		}
	}
}

func TestUnreachableHubArrivalEstimate(t *testing.T) {
	// A two-component graph: hubs live in component A; sources in B never
	// reach them and must get estimate 0.
	b := graph.NewBuilder(8, true, true)
	// Component A: star around 0.
	for _, d := range []graph.VertexID{1, 2, 3} {
		b.AddEdge(0, d, 1)
		b.AddEdge(d, 0, 1)
	}
	// Component B: a 2-cycle.
	b.AddEdge(6, 7, 1)
	b.AddEdge(7, 6, 1)
	g := b.MustBuild()
	p := NewProfile(g, 1, 1)
	if p.Hubs[0] != 0 {
		t.Fatalf("hub = %d, want 0", p.Hubs[0])
	}
	if p.ClosestHV[6] != -1 {
		t.Fatalf("closestHV[6] = %d, want -1", p.ClosestHV[6])
	}
	if p.ArrivalEstimate(6) != 0 {
		t.Fatalf("arrival estimate = %d, want 0", p.ArrivalEstimate(6))
	}
	I := p.AlignmentVector([]queries.Query{
		{Kernel: queries.BFS, Source: 6},
		{Kernel: queries.BFS, Source: 1},
	})
	if I[0] != 1 || I[1] != 0 {
		t.Fatalf("I = %v, want [1,0]", I)
	}
}

func TestRelativeShiftAndAbsDiff(t *testing.T) {
	if RelativeShift([]int{2, 0}) != 2 || RelativeShift([]int{0, 3}) != -3 {
		t.Fatal("RelativeShift broken")
	}
	if AbsDiff(2, -3) != 5 || AbsDiff(-3, 2) != 5 || AbsDiff(1, 1) != 0 {
		t.Fatal("AbsDiff broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RelativeShift should panic on non-pair")
		}
	}()
	RelativeShift([]int{1})
}

func TestOptimalAlignmentNormalized(t *testing.T) {
	_, traces := paperTraces(t)
	best, _ := OptimalAlignment(traces, 3)
	if !hasZero(best) {
		t.Fatalf("optimal vector %v not normalized (no zero entry)", best)
	}
	if v, aff := OptimalAlignment(nil, 3); v != nil || aff != 0 {
		t.Fatal("empty input should return nil, 0")
	}
}

// Optimal affinity must dominate both the zero alignment and the heuristic
// alignment (it is a max over a superset).
func TestOptimalDominatesHeuristic(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	p := NewProfile(g, 4, 2)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		batch := []queries.Query{
			{Kernel: queries.SSSP, Source: graph.VertexID(rng.Intn(g.NumVertices()))},
			{Kernel: queries.SSSP, Source: graph.VertexID(rng.Intn(g.NumVertices()))},
		}
		traces := TraceBatch(g, batch, 2)
		heur := p.AlignmentVector(batch)
		_, opt := OptimalAlignment(traces, 6)
		if a := Affinity(traces, heur); a > opt+1e-12 {
			t.Fatalf("heuristic affinity %v exceeds optimal %v", a, opt)
		}
		if a := Affinity(traces, []int{0, 0}); a > opt+1e-12 {
			t.Fatalf("zero affinity %v exceeds optimal %v", a, opt)
		}
	}
}
