package sched

import (
	"math/rand"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

func TestIBFSGroupsShareHeavyNeighbor(t *testing.T) {
	g := graph.MustGenerate(graph.TW, graph.Tiny)
	rng := rand.New(rand.NewSource(34))
	buf := make([]queries.Query, 80)
	for i := range buf {
		buf[i] = queries.Query{Kernel: queries.BFS,
			Source: graph.VertexID(rng.Intn(g.NumVertices()))}
	}
	h := IBFS{Graph: g}
	batches := h.MakeBatches(buf, 8)
	// Partition check.
	seen := make([]bool, len(buf))
	total := 0
	for _, b := range batches {
		if len(b) == 0 || len(b) > 8 {
			t.Fatalf("batch size %d", len(b))
		}
		for _, i := range b {
			if seen[i] {
				t.Fatalf("query %d scheduled twice", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != len(buf) {
		t.Fatalf("scheduled %d of %d", total, len(buf))
	}
}

func TestIBFSParameterDefaults(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	buf := []queries.Query{{Kernel: queries.BFS, Source: 0}}
	// The parameters derived from the graph must schedule everything.
	batches := IBFS{Graph: g}.MakeBatches(buf, 4)
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("batches = %v", batches)
	}
}
