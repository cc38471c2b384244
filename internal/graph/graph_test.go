package graph

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph reports |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
}

func TestPaperExampleStructure(t *testing.T) {
	g := PaperExample()
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if g.NumVertices() != 9 {
		t.Fatalf("|V| = %d, want 9", g.NumVertices())
	}
	if g.NumEdges() != 14 {
		t.Fatalf("|E| = %d, want 14", g.NumEdges())
	}
	if !g.Directed || !g.Weighted() {
		t.Fatalf("want directed weighted, got directed=%v weighted=%v", g.Directed, g.Weighted())
	}
	// v3 (index 2) has out-neighbors v4,v5,v6,v7 (indices 3,4,5,6).
	nbrs := g.OutNeighbors(2)
	want := []VertexID{3, 4, 5, 6}
	if len(nbrs) != len(want) {
		t.Fatalf("v3 out-neighbors = %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("v3 out-neighbors = %v, want %v", nbrs, want)
		}
	}
	// Weight of v1->v3 is 4.
	_, ws := g.OutEdges(0)
	if len(ws) != 1 || ws[0] != 4 {
		t.Fatalf("w(v1,v3) = %v, want [4]", ws)
	}
	// v3 has the max out-degree (4).
	hub, deg := g.MaxOutDegree()
	if hub != 2 || deg != 4 {
		t.Fatalf("max out-degree = v%d deg %d, want v3 deg 4", hub+1, deg)
	}
}

func TestOutDegreeSumsToNumEdges(t *testing.T) {
	g := PaperExample()
	sum := 0
	for v := 0; v < g.NumVertices(); v++ {
		sum += g.OutDegree(VertexID(v))
	}
	if sum != g.NumEdges() {
		t.Fatalf("sum of out-degrees = %d, want %d", sum, g.NumEdges())
	}
}

func TestReverse(t *testing.T) {
	g := PaperExample()
	r := g.Reverse()
	if err := r.Validate(); err != nil {
		t.Fatalf("reverse invalid: %v", err)
	}
	if r.NumEdges() != g.NumEdges() || r.NumVertices() != g.NumVertices() {
		t.Fatalf("reverse size mismatch")
	}
	// Every edge u->v of g must appear as v->u in r with equal weight.
	type arc struct {
		u, v VertexID
		w    Weight
	}
	collect := func(g *Graph, flip bool) []arc {
		var out []arc
		for v := 0; v < g.NumVertices(); v++ {
			nbrs, ws := g.OutEdges(VertexID(v))
			for i, u := range nbrs {
				a := arc{VertexID(v), u, ws[i]}
				if flip {
					a.u, a.v = a.v, a.u
				}
				out = append(out, a)
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].u != out[j].u {
				return out[i].u < out[j].u
			}
			if out[i].v != out[j].v {
				return out[i].v < out[j].v
			}
			return out[i].w < out[j].w
		})
		return out
	}
	fwd := collect(g, false)
	rev := collect(r, true)
	if len(fwd) != len(rev) {
		t.Fatalf("arc count mismatch")
	}
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Fatalf("arc %d: %v vs reversed %v", i, fwd[i], rev[i])
		}
	}
}

func TestReverseTwiceIsIdentity(t *testing.T) {
	for _, g := range []*Graph{PaperExample(), GenerateRMAT(DefaultRMAT(8, 8, 42))} {
		rr := g.Reverse().Reverse()
		if rr.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: double reverse changed |E|", g.Name)
		}
		for v := 0; v < g.NumVertices(); v++ {
			a, b := g.OutNeighbors(VertexID(v)), rr.OutNeighbors(VertexID(v))
			if len(a) != len(b) {
				t.Fatalf("%s: v%d degree changed", g.Name, v)
			}
			// Neighbor lists are sorted by construction in Builder; Reverse
			// preserves per-source ordering of the reversed arcs, which is
			// sorted because the outer loop visits sources in order.
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: v%d neighbors %v vs %v", g.Name, v, a, b)
				}
			}
		}
	}
}

func TestTopOutDegreeVertices(t *testing.T) {
	g := PaperExample()
	top := g.TopOutDegreeVertices(3)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0] != 2 { // v3, degree 4
		t.Fatalf("top[0] = v%d, want v3", top[0]+1)
	}
	for i := 1; i < len(top); i++ {
		if g.OutDegree(top[i]) > g.OutDegree(top[i-1]) {
			t.Fatalf("top degrees not descending: %v", top)
		}
	}
	if got := g.TopOutDegreeVertices(100); len(got) != g.NumVertices() {
		t.Fatalf("k>n should clamp, got %d", len(got))
	}
	if got := g.TopOutDegreeVertices(0); got != nil {
		t.Fatalf("k=0 should be nil, got %v", got)
	}
}

// TestTopOutDegreeVerticesMatchesSort holds the k-bounded selection to the
// first k of all ids sorted by degree descending, then id ascending, on
// graphs with many tied degrees.
func TestTopOutDegreeVerticesMatchesSort(t *testing.T) {
	for _, g := range []*Graph{PaperExample(), MustGenerate(LJ, Tiny), MustGenerate(RDCA, Tiny)} {
		ids := make([]VertexID, g.NumVertices())
		for i := range ids {
			ids[i] = VertexID(i)
		}
		sort.SliceStable(ids, func(a, b int) bool { return g.OutDegree(ids[a]) > g.OutDegree(ids[b]) })
		for _, k := range []int{1, 2, 4, 7, 16, 64} {
			want := ids[:min(k, len(ids))]
			if got := g.TopOutDegreeVertices(k); !slices.Equal(got, want) {
				t.Fatalf("%s k=%d: %v, want %v", g.Name, k, got, want)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Graph { return PaperExample() }

	g := fresh()
	g.Offsets[3] = g.Offsets[4] + 1
	if err := g.Validate(); err == nil {
		t.Fatal("non-monotone offsets not caught")
	}

	g = fresh()
	g.Targets[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range target not caught")
	}

	g = fresh()
	g.Weights = g.Weights[:3]
	if err := g.Validate(); err == nil {
		t.Fatal("short weights not caught")
	}

	g = fresh()
	g.Offsets[0] = 1
	if err := g.Validate(); err == nil {
		t.Fatal("offsets[0] != 0 not caught")
	}
}

func TestMemoryFootprint(t *testing.T) {
	g := PaperExample()
	want := int64(len(g.Offsets)+len(g.Targets)+len(g.Weights)) * 4
	if got := g.MemoryFootprintBytes(); got != want {
		t.Fatalf("footprint = %d, want %d", got, want)
	}
}

func TestStringContainsBasics(t *testing.T) {
	g := PaperExample()
	s := g.String()
	for _, sub := range []string{"paper-fig3", "directed", "weighted", "|V|=9", "|E|=14"} {
		if !strings.Contains(s, sub) {
			t.Fatalf("String() = %q missing %q", s, sub)
		}
	}
}
