package serve

import (
	"context"
	"runtime"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
)

// warmedBatchBudget bounds the heap bytes a warmed single-query batch on
// LJ/small allocates beyond its result vector. It measures about 3.9 KB: the
// ticket, the slot, the formed batch, the batch setup and the pool's
// dispatch; the budget is that plus about 20 %. The engine's batch state —
// value array, frontier pair and push accumulators — comes from the server's
// arena, so a per-batch frontier or a member list regrown from zero (about
// 170 KB) fails here.
const warmedBatchBudget = 5 << 10

// TestWarmedBatchBytes serves BFS queries one at a time, each its own batch
// on the idle engine, and checks the bytes a warmed batch allocates less its
// n-cell result vector.
func TestWarmedBatchBytes(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Small)
	pool := par.NewPool(2)
	defer pool.Close()
	s, err := New(g, Config{Workers: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var srcs []graph.VertexID
	for v := 0; len(srcs) < 24; v++ {
		if g.OutDegree(graph.VertexID(v)) > 0 {
			srcs = append(srcs, graph.VertexID(v))
		}
	}
	serveOne := func(src graph.VertexID) {
		tk, err := s.Submit(context.Background(), queries.Query{Kernel: queries.BFS, Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	const warm = 8
	for _, src := range srcs[:warm] {
		serveOne(src)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, src := range srcs[warm:] {
		serveOne(src)
	}
	runtime.ReadMemStats(&after)
	batches := float64(len(srcs) - warm)
	perBatch := float64(after.TotalAlloc-before.TotalAlloc) / batches
	beyond := perBatch - float64(8*g.NumVertices())
	if beyond > warmedBatchBudget {
		t.Errorf("a warmed single-query batch allocated %.0f bytes beyond its result vector (%.0f in all, %.1f objects), over its budget of %d",
			beyond, perBatch, float64(after.Mallocs-before.Mallocs)/batches, warmedBatchBudget)
	}
}
