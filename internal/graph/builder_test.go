package graph

import (
	"math"
	"math/rand"
	"slices"
	"sort"
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

// sortBuild is the comparison-sort build Build's counting sort replaces:
// symmetrize, normalize the unset weight, drop self-loops, sort every arc by
// (source, target, weight), keep each (source, target)'s first arc and lay
// the survivors out as CSR.
func sortBuild(n int, directed, weighted bool, in []Edge) *Graph {
	var edges []Edge
	for _, e := range in {
		e.W = normWeight(e.W)
		if e.Src == e.Dst {
			continue
		}
		edges = append(edges, e)
		if !directed {
			edges = append(edges, Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.W < b.W
	})
	g := &Graph{Offsets: make([]uint32, n+1), Directed: directed}
	for i, e := range edges {
		if i > 0 && e.Src == edges[i-1].Src && e.Dst == edges[i-1].Dst {
			continue
		}
		g.Offsets[e.Src+1]++
		g.Targets = append(g.Targets, e.Dst)
		if weighted {
			g.Weights = append(g.Weights, e.W)
		}
	}
	for v := 1; v <= n; v++ {
		g.Offsets[v] += g.Offsets[v-1]
	}
	if g.Targets == nil {
		g.Targets = []VertexID{}
		if weighted {
			g.Weights = []Weight{}
		}
	}
	return g
}

// TestBuildMatchesSortReference holds Build's counting sort to the
// comparison sort on random edge lists dense in duplicates (same and
// different weights), self-loops and unset weights, directed and
// symmetrized, weighted and not.
func TestBuildMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	weights := []Weight{0, 1, 1.5, 2, 3, 7, 64}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(24)
		directed, weighted := rng.Intn(2) == 0, rng.Intn(2) == 0
		edges := make([]Edge, rng.Intn(6*n))
		for i := range edges {
			edges[i] = Edge{
				Src: VertexID(rng.Intn(n)),
				Dst: VertexID(rng.Intn(n)),
				W:   weights[rng.Intn(len(weights))],
			}
		}
		got, err := FromEdges(n, directed, weighted, edges)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := sortBuild(n, directed, weighted, edges)
		if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Targets, want.Targets) ||
			!slices.Equal(got.Weights, want.Weights) || (got.Weights == nil) != (want.Weights == nil) {
			t.Fatalf("trial %d (n=%d directed=%v weighted=%v, edges %v):\ngot  %v %v %v\nwant %v %v %v",
				trial, n, directed, weighted, edges,
				got.Offsets, got.Targets, got.Weights, want.Offsets, want.Targets, want.Weights)
		}
	}
}
