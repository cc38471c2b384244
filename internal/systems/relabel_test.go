package systems_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/order"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/systems"
)

// TestRelabellingPreservesValues is a metamorphic relation that needs no
// second implementation: renumbering a graph's vertices changes nothing a
// query computes. On every Tiny dataset, relabelled by a seeded random
// permutation, by DegreeOrder and by HubClusterOrder, every method runs BFS,
// SSSP and SSWP buffers with their sources mapped through the permutation,
// and each value, mapped back, must be bit-identical to the one the method
// computes on the graph as generated. A defect that depends on vertex ids —
// one the serial oracle shares, since it reads the same graph — moves some
// value. Relabelling also moves vertices to other bitmap words, so every
// engine's frontiers see new word layouts.
func TestRelabellingPreservesValues(t *testing.T) {
	kernels := []queries.Kernel{queries.BFS, queries.SSSP, queries.SSWP}
	for di, ds := range graph.AllDatasets() {
		g := graph.MustGenerate(ds, graph.Tiny)
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(int64(17 + di)))
		random := make(order.Permutation, n)
		for old, v := range rng.Perm(n) {
			random[old] = graph.VertexID(v)
		}
		perms := []struct {
			name string
			perm order.Permutation
		}{
			{"random", random},
			{"degree", order.DegreeOrder(g)},
			{"hub-cluster", order.HubClusterOrder(g, align.DefaultHubCount)},
		}
		relabelled := make([]*graph.Graph, len(perms))
		for i, p := range perms {
			var err error
			if relabelled[i], err = order.Relabel(g, p.perm); err != nil {
				t.Fatalf("%s %s: %v", ds, p.name, err)
			}
		}
		for _, k := range kernels {
			buf := make([]queries.Query, 4)
			for i := range buf {
				buf[i] = queries.Query{Kernel: k, Source: graph.VertexID(rng.Intn(n))}
			}
			for _, m := range systems.AllMethods() {
				want := runValues(t, m, g, buf)
				for i, p := range perms {
					mapped := make([]queries.Query, len(buf))
					for j, q := range buf {
						mapped[j] = queries.Query{Kernel: q.Kernel, Source: p.perm[q.Source]}
					}
					got := runValues(t, m, relabelled[i], mapped)
					where := fmt.Sprintf("%s %s relabelled %s, %s", ds, k.Name(), p.name, m)
					for j := range buf {
						for v, w := range want[j] {
							if x := got[j][p.perm[v]]; math.Float64bits(x) != math.Float64bits(w) {
								t.Fatalf("%s: query %d (source v%d) has %v at v%d, %v unrelabelled", where, j, buf[j].Source, x, v, w)
							}
						}
					}
				}
			}
		}
	}
}

// runValues runs buf with method m on g, in batches of at most three (a
// buffer of four is a batch of three and a batch of one), and returns every
// query's values.
func runValues(t *testing.T, m string, g *graph.Graph, buf []queries.Query) map[int][]queries.Value {
	t.Helper()
	res, err := systems.Run(m, g, buf, systems.Config{BatchSize: 3, Workers: 2, KeepValues: true})
	if err != nil {
		t.Fatalf("%s on %s: %v", m, g.Name, err)
	}
	return res.Values
}
