package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderDedupKeepsSmallestWeight(t *testing.T) {
	b := NewBuilder(3, true, true)
	b.AddEdge(0, 1, 7)
	b.AddEdge(0, 1, 3)
	b.AddEdge(0, 1, 9)
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("|E| = %d, want 1 after dedup", g.NumEdges())
	}
	if _, ws := g.OutEdges(0); ws[0] != 3 {
		t.Fatalf("kept weight %v, want 3 (smallest)", ws[0])
	}
}

func TestBuilderDropsSelfLoops(t *testing.T) {
	b := NewBuilder(2, true, false)
	b.AddEdge(0, 0, 0)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 1, 0)
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("|E| = %d, want 1 after self-loop removal", g.NumEdges())
	}
}

func TestBuilderUndirectedSymmetry(t *testing.T) {
	b := NewBuilder(4, false, true)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 3, 4)
	g := b.MustBuild()
	if g.NumEdges() != 6 {
		t.Fatalf("|E| = %d, want 6 (symmetrized)", g.NumEdges())
	}
	// Every arc must have its mirror with equal weight.
	for v := 0; v < g.NumVertices(); v++ {
		nbrs, ws := g.OutEdges(VertexID(v))
		for i, u := range nbrs {
			back, bws := g.OutEdges(u)
			found := false
			for j, x := range back {
				if x == VertexID(v) && bws[j] == ws[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d w=%v has no mirror", v, u, ws[i])
			}
		}
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2, true, false)
	b.AddEdge(0, 5, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range edge not rejected")
	}
}

func TestBuilderZeroWeightNormalizedToOne(t *testing.T) {
	b := NewBuilder(2, true, true)
	b.AddEdge(0, 1, 0)
	g := b.MustBuild()
	if _, ws := g.OutEdges(0); ws[0] != 1 {
		t.Fatalf("weight = %v, want 1", ws[0])
	}
}

// TestBuilderRejectsBadWeights holds Build to the loaders' weight contract:
// a weight that is not >= 1 once the unset 0 is normalized fails the build,
// on weighted and unweighted, directed and undirected builders alike. An
// undirected weighted graph with a negative edge would otherwise hand SSSP a
// negative cycle, which it relaxes forever.
func TestBuilderRejectsBadWeights(t *testing.T) {
	for _, w := range []Weight{-1, 0.5, Weight(math.NaN()), Weight(math.Inf(-1))} {
		for _, directed := range []bool{true, false} {
			for _, weighted := range []bool{true, false} {
				b := NewBuilder(3, directed, weighted)
				b.AddEdge(1, 2, 1)
				b.AddEdge(0, 1, w)
				if g, err := b.Build(); err == nil {
					t.Errorf("weight %v (directed %v, weighted %v): built %v, want an error", w, directed, weighted, g)
				}
			}
		}
	}
}

func TestUnweightedGraphReportsWeightOne(t *testing.T) {
	b := NewBuilder(2, true, false)
	b.AddEdge(0, 1, 0)
	g := b.MustBuild()
	if g.Weighted() {
		t.Fatal("unweighted graph reports Weighted()")
	}
	// Weight-one edges are read from the absent weight slice.
	if _, ws := g.OutEdges(0); ws != nil {
		t.Fatalf("OutEdges weights = %v, want nil (every edge weighs 1)", ws)
	}
}

func TestNeighborListsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(50, true, true)
	for i := 0; i < 500; i++ {
		b.AddEdge(VertexID(rng.Intn(50)), VertexID(rng.Intn(50)), Weight(1+rng.Intn(9)))
	}
	g := b.MustBuild()
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.OutNeighbors(VertexID(v))
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i] <= nbrs[i-1] {
				t.Fatalf("v%d neighbors not strictly sorted: %v", v, nbrs)
			}
		}
	}
}

// Property: any random directed edge set builds into a graph that validates,
// has |E| <= inputs, and round-trips through Reverse twice.
func TestQuickBuilderInvariants(t *testing.T) {
	f := func(seed int64, nEdges uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n, rng.Intn(2) == 0, true)
		for i := 0; i < int(nEdges); i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), Weight(1+rng.Intn(16)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		rr := g.Reverse().Reverse()
		if rr.NumEdges() != g.NumEdges() {
			return false
		}
		for v := 0; v < n; v++ {
			a, c := g.OutNeighbors(VertexID(v)), rr.OutNeighbors(VertexID(v))
			if len(a) != len(c) {
				return false
			}
			for i := range a {
				if a[i] != c[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, true, true, []Edge{{0, 1, 2}, {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("|E| = %d, want 2", g.NumEdges())
	}
}
