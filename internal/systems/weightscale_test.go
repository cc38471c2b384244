package systems_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/systems"
)

// TestWeightScalingRelation is a metamorphic relation that needs no second
// implementation: doubling every edge weight doubles every SSSP, SSWP and
// SSNP value exactly — a power-of-two scale of sums, minima and maxima of the
// weights, identities and source values included — and changes no BFS or
// KHop(3) value, which count hops. On every Tiny dataset, every method runs a
// buffer of each kernel on the graph as generated and on the same graph with
// doubled weights. A defect that depends on the size of a weight — one the
// serial oracle shares, such as an SSWP relaxation clamped at the
// generator's MaxWeight of 64 — moves some value.
func TestWeightScalingRelation(t *testing.T) {
	kernels := []struct {
		k     queries.Kernel
		scale queries.Value
	}{{queries.BFS, 1}, {queries.KHop(3), 1}, {queries.SSSP, 2}, {queries.SSWP, 2}, {queries.SSNP, 2}}
	for di, ds := range graph.AllDatasets() {
		g := graph.MustGenerate(ds, graph.Tiny)
		doubled := *g
		doubled.Weights = make([]graph.Weight, g.NumEdges())
		for j := range doubled.Weights {
			doubled.Weights[j] = 2
			if g.Weighted() {
				doubled.Weights[j] = 2 * g.Weights[j]
			}
		}
		rng := rand.New(rand.NewSource(int64(31 + di)))
		for _, kc := range kernels {
			buf := make([]queries.Query, 4)
			for i := range buf {
				buf[i] = queries.Query{Kernel: kc.k, Source: graph.VertexID(rng.Intn(g.NumVertices()))}
			}
			for _, m := range systems.AllMethods() {
				want, got := runValues(t, m, g, buf), runValues(t, m, &doubled, buf)
				where := fmt.Sprintf("%s %s, %s", ds, kc.k.Name(), m)
				for j := range buf {
					for v, w := range want[j] {
						if x := got[j][v]; math.Float64bits(x) != math.Float64bits(kc.scale*w) {
							t.Fatalf("%s: query %d (source v%d) has %v at v%d with doubled weights, %v as generated, want %g times that",
								where, j, buf[j].Source, x, v, w, kc.scale)
						}
					}
				}
			}
		}
	}
}
