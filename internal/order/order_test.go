package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/queries"
)

func orderings(g *graph.Graph) map[string]Permutation {
	return map[string]Permutation{
		"degree":     DegreeOrder(g),
		"bfs":        BFSOrder(g),
		"hubcluster": HubClusterOrder(g, 4),
	}
}

func TestPermutationsAreBijections(t *testing.T) {
	for _, g := range []*graph.Graph{graph.PaperExample(), graph.MustGenerate(graph.TW, graph.Tiny), graph.MustGenerate(graph.RDCA, graph.Tiny)} {
		for name, p := range orderings(g) {
			if err := p.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", g.Name, name, err)
			}
			inv := p.Inverse()
			for v := range p {
				if inv[p[v]] != graph.VertexID(v) {
					t.Fatalf("%s/%s: inverse broken at %d", g.Name, name, v)
				}
			}
		}
	}
}

func TestDegreeOrderPutsHubsFirst(t *testing.T) {
	g := graph.MustGenerate(graph.TW, graph.Tiny)
	p := DegreeOrder(g)
	inv := p.Inverse()
	for newID := 1; newID < g.NumVertices(); newID++ {
		if g.OutDegree(inv[newID]) > g.OutDegree(inv[newID-1]) {
			t.Fatalf("degrees not descending at new id %d", newID)
		}
	}
}

func TestHubClusterOrderPlacesHubsAtFront(t *testing.T) {
	g := graph.MustGenerate(graph.TW, graph.Tiny)
	p := HubClusterOrder(g, 4)
	for i, h := range g.TopOutDegreeVertices(4) {
		if p[h] != graph.VertexID(i) {
			t.Fatalf("hub %d mapped to %d, want %d", h, p[h], i)
		}
	}
}

// Relabeling must preserve query semantics: results on the reordered graph,
// mapped back through the permutation, equal results on the original.
func TestRelabelPreservesQueryResults(t *testing.T) {
	for _, g := range []*graph.Graph{graph.PaperExample(), graph.MustGenerate(graph.LJ, graph.Tiny)} {
		for name, p := range orderings(g) {
			rg, err := Relabel(g, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name, name, err)
			}
			if rg.NumEdges() != g.NumEdges() || rg.NumVertices() != g.NumVertices() {
				t.Fatalf("%s/%s: size changed", g.Name, name)
			}
			src := graph.VertexID(0)
			for _, k := range []queries.Kernel{queries.BFS, queries.SSSP} {
				orig := oracle.ReferenceRun(g, queries.Query{Kernel: k, Source: src})
				re := oracle.ReferenceRun(rg, queries.Query{Kernel: k, Source: p[src]})
				for v := 0; v < g.NumVertices(); v++ {
					if orig[v] != re[p[v]] {
						t.Fatalf("%s/%s/%s: value of v%d changed: %v vs %v",
							g.Name, name, k.Name(), v, orig[v], re[p[v]])
					}
				}
			}
		}
	}
}

func TestRelabelValidation(t *testing.T) {
	g := graph.PaperExample()
	if _, err := Relabel(g, Permutation{0, 1}); err == nil {
		t.Fatal("short permutation accepted")
	}
	bad := make(Permutation, 9)
	for i := range bad {
		bad[i] = 0 // not a bijection
	}
	if _, err := Relabel(g, bad); err == nil {
		t.Fatal("non-bijection accepted")
	}
	oob := make(Permutation, 9)
	for i := range oob {
		oob[i] = graph.VertexID(i)
	}
	oob[3] = 99
	if _, err := Relabel(g, oob); err == nil {
		t.Fatal("out-of-range permutation accepted")
	}
}

func TestBFSOrderCoversDisconnectedGraphs(t *testing.T) {
	// Two components; BFS order must still assign every vertex exactly once.
	b := graph.NewBuilder(6, true, false)
	b.AddEdge(0, 1, 0)
	b.AddEdge(4, 5, 0)
	g := b.MustBuild()
	for name, p := range orderings(g) {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestQuickRelabelRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := graph.NewBuilder(n, rng.Intn(2) == 0, true)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)),
				graph.Weight(1+rng.Intn(9)))
		}
		g := b.MustBuild()
		p := BFSOrder(g)
		rg, err := Relabel(g, p)
		if err != nil {
			return false
		}
		// Relabel back with the inverse: must reproduce the original CSR.
		back, err := Relabel(rg, p.Inverse())
		if err != nil {
			return false
		}
		if back.NumEdges() != g.NumEdges() {
			return false
		}
		for v := 0; v < n; v++ {
			a, c := g.OutNeighbors(graph.VertexID(v)), back.OutNeighbors(graph.VertexID(v))
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
