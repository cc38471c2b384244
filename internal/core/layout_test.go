package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

func TestLaneOffsets(t *testing.T) {
	const n, b = 100, 8
	laneOff, total := laneOffsets(n, b)
	stride := total / b
	if stride%8 != 0 || stride < n || total != stride*b {
		t.Fatalf("laneOffsets(%d, %d): total=%d stride=%d, want a multiple of 8 cells >= n per lane", n, b, total, stride)
	}
	for i, off := range laneOff {
		// 8 cells x 8 bytes: every lane segment starts on a 64-byte line, and
		// lane i owns [i*stride, i*stride+n) — segments never overlap.
		if off != i*stride {
			t.Fatalf("LaneOff[%d]=%d, want %d", i, off, i*stride)
		}
	}
}

// referenceValues evaluates every query of the batch independently with the
// serial textbook evaluator — the layout-free reference of the tests below.
func referenceValues(g *graph.Graph, batch []queries.Query) [][]queries.Value {
	out := make([][]queries.Value, len(batch))
	for i, q := range batch {
		out[i] = engine.ReferenceRun(g, q)
	}
	return out
}

// TestLayoutEquivalenceAcrossEngines pins every concurrent engine's padded
// value array bitwise to a reference that never touches it: per-lane
// engine.ReferenceRun for monotone batches, the one-query-at-a-time Jacobi
// evaluator for iterate-to-convergence ones.
func TestLayoutEquivalenceAcrossEngines(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	monotone := []queries.Query{
		{Kernel: queries.SSSP, Source: 1},
		{Kernel: queries.BFS, Source: 3},
		{Kernel: queries.SSWP, Source: 5},
		{Kernel: queries.SSNP, Source: 7},
	}
	pr, err := queries.ByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	convergent := []queries.Query{
		{Kernel: pr, Source: 0},
		{Kernel: pr, Source: 2},
	}

	convRef := make([][]queries.Value, len(convergent))
	for i, q := range convergent {
		r, err := engine.RunConvergence(g, q, engine.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		convRef[i] = r.Values
	}
	cases := map[string]struct {
		batch []queries.Query
		ref   [][]queries.Value
	}{
		"monotone":    {monotone, referenceValues(g, monotone)},
		"convergence": {convergent, convRef},
	}
	for _, e := range []Engine{GlignIntra, LigraC, Krill, LigraS} {
		for name, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", e.Name(), name), func(t *testing.T) {
				got, err := e.Run(g, tc.batch, Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				for qi := range tc.batch {
					for v, gv := range got.QueryValues(qi) {
						if gv != tc.ref[qi][v] {
							t.Fatalf("query %d vertex %d: engine %v != reference %v", qi, v, gv, tc.ref[qi][v])
						}
					}
				}
			})
		}
	}
}

// TestPaddedLayoutStress is the race-detector stress for the padded per-lane
// layout: an 8-lane batch hammered concurrently by all CAS engines across
// GOMAXPROCS 1, 2 and 8, every run checked bitwise against per-lane
// engine.ReferenceRun. verify.sh runs this package under -race.
func TestPaddedLayoutStress(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 1},
		{Kernel: queries.BFS, Source: 3},
		{Kernel: queries.SSWP, Source: 5},
		{Kernel: queries.SSNP, Source: 7},
		{Kernel: queries.SSSP, Source: 11},
		{Kernel: queries.BFS, Source: 13},
		{Kernel: queries.SSWP, Source: 17},
		{Kernel: queries.BFS, Source: 19},
	}
	if len(batch) != 8 {
		t.Fatal("stress batch must have 8 lanes")
	}
	want := referenceValues(g, batch)

	engines := []Engine{GlignIntra, LigraC, Krill}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			var wg sync.WaitGroup
			for rep := 0; rep < 3; rep++ {
				for _, e := range engines {
					wg.Add(1)
					go func(e Engine, rep int) {
						defer wg.Done()
						res, err := e.Run(g, batch, Options{Workers: 2 + rep})
						if err != nil {
							t.Errorf("%s: %v", e.Name(), err)
							return
						}
						for qi := range batch {
							for v := 0; v < g.NumVertices(); v++ {
								got := res.Value(qi, graph.VertexID(v))
								if got != want[qi][v] {
									t.Errorf("%s rep %d: query %d vertex %d = %v, want %v",
										e.Name(), rep, qi, v, got, want[qi][v])
									return
								}
							}
						}
					}(e, rep)
				}
			}
			wg.Wait()
		})
	}
}
