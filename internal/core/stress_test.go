package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// TestConcurrentBatchStress drives several batches through the concurrent
// engines at once — sharing one graph, one reverse graph and one telemetry
// collector — across GOMAXPROCS 1, 2 and 8. Its job is to give the race
// detector (verify.sh runs this package under -race) real interleavings to
// bite on: CAS relaxations, frontier unions, telemetry recording and the
// BatchResult counter protocol all run concurrently here.
func TestConcurrentBatchStress(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	rev := g.Reverse()
	col := telemetry.NewCollector()

	// Per-engine reference values, computed once up front (sequentially via
	// Ligra-S) so every concurrent run can be checked for correctness too.
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 1},
		{Kernel: queries.BFS, Source: 3},
		{Kernel: queries.SSWP, Source: 5},
		{Kernel: queries.SSNP, Source: 7},
	}
	want, err := LigraS.Run(g, batch, Options{})
	if err != nil {
		t.Fatal(err)
	}

	engines := []Engine{LigraC, Krill, GlignIntra}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			run := col.StartRun("stress", "none")
			var wg sync.WaitGroup
			const repeats = 3
			for rep := 0; rep < repeats; rep++ {
				for _, e := range engines {
					wg.Add(1)
					go func(e Engine, rep int) {
						defer wg.Done()
						opt := Options{
							Workers:   2 + rep,
							Telemetry: run.StartBatch(e.Name(), nil, nil),
						}
						if e.Name() == GlignIntra.Name() {
							opt.ReverseGraph = rev
						}
						res, err := e.Run(g, batch, opt)
						if err != nil {
							t.Errorf("%s: %v", e.Name(), err)
							return
						}
						for qi := range batch {
							for v := 0; v < g.NumVertices(); v++ {
								got := res.Value(qi, graph.VertexID(v))
								if got != want.Value(qi, graph.VertexID(v)) {
									t.Errorf("%s rep %d: query %d vertex %d = %v, want %v",
										e.Name(), rep, qi, v, got, want.Value(qi, graph.VertexID(v)))
									return
								}
							}
						}
					}(e, rep)
				}
			}
			wg.Wait()

			// The shared collector must have absorbed every batch without
			// losing or corrupting counts.
			m := run.Snapshot()
			if len(m.Batches) != repeats*len(engines) {
				t.Errorf("collector saw %d batches, want %d", len(m.Batches), repeats*len(engines))
			}
			for _, b := range m.Batches {
				if len(b.Iterations) == 0 {
					t.Errorf("batch %s recorded no iterations", b.Engine)
				}
				for _, it := range b.Iterations {
					if it.EdgesProcessed < 0 {
						t.Errorf("batch %s has corrupt iteration counter %d", b.Engine, it.EdgesProcessed)
					}
				}
			}
		})
	}
}

// checkSpareMaskClean holds spareLaneMask to its invariant: the mask in it is
// all-zero over its whole capacity.
func checkSpareMaskClean(t *testing.T) {
	t.Helper()
	m := spareLaneMask.Swap(nil) // taken out, so no batch marks it meanwhile
	if m == nil {
		return
	}
	defer spareLaneMask.Store(m)
	for i, w := range m.words[:cap(m.words)] {
		if w != 0 {
			t.Fatalf("the recycled lane mask has word %d = %#x", i, w)
		}
	}
}

// TestChangedLaneMaskCorners takes the query-oblivious engine's changed-lane
// mask through the places its bookkeeping could slip, across GOMAXPROCS 1, 2
// and 8 (verify.sh runs this package under -race), each against per-lane
// engine.ReferenceRun: lanes injected at a vertex that is already active for
// another lane; a direction-optimized run whose mask must survive a pull
// between two pushes; and a run stopped by MaxIterations with bits still set,
// whose mask must not reach the batch after it.
func TestChangedLaneMaskCorners(t *testing.T) {
	g := graph.MustGenerate(graph.TW, graph.Tiny)
	rev := g.Reverse()
	hub := graph.VertexID(0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(graph.VertexID(v)) > g.OutDegree(hub) {
			hub = graph.VertexID(v)
		}
	}
	nbrs, _ := g.OutEdges(hub)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			t.Run("inject-at-active-vertex", func(t *testing.T) {
				// Lane 0 reaches nbrs[0] in iteration 0, so it is in the
				// frontier of iteration 1, when lanes 1 and 2 start there.
				batch := []queries.Query{
					{Kernel: queries.SSSP, Source: hub},
					{Kernel: queries.BFS, Source: nbrs[0]},
					{Kernel: queries.KHop(3), Source: nbrs[0]},
				}
				checkAgainstReference(t, g, batch, GlignIntra, Options{Alignment: []int{0, 1, 1}, Workers: 3})
			})

			t.Run("push-pull-push", func(t *testing.T) {
				batch := stressBatch(16)
				bt := telemetry.NewCollector().StartRun("corners", "").StartBatch(GlignIntra.Name(), nil, nil)
				checkAgainstReference(t, g, batch, GlignIntra, Options{ReverseGraph: rev, Workers: 3, Telemetry: bt})
				var modes []string
				for _, it := range bt.Snapshot().Iterations {
					if len(modes) == 0 || modes[len(modes)-1] != it.Mode {
						modes = append(modes, it.Mode)
					}
				}
				want := []string{telemetry.ModePush, telemetry.ModePull, telemetry.ModePush}
				if len(modes) < 3 || !slices.Equal(modes[:3], want) {
					t.Fatalf("iteration modes ran %v, want them to start %v", modes, want)
				}
			})

			t.Run("capped-then-second-batch", func(t *testing.T) {
				batch := stressBatch(13)
				fresh, err := GlignIntra.Run(g, batch, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				capped, err := GlignIntra.Run(g, batch, Options{Workers: 1, MaxIterations: 2})
				if err != nil {
					t.Fatal(err)
				}
				if capped.GlobalIterations != 2 {
					t.Fatalf("capped run took %d iterations, want 2", capped.GlobalIterations)
				}
				checkSpareMaskClean(t)
				// Serial runs repeat exactly, so a leaked bit — a lane relaxed
				// that had not changed — would show in the counters.
				again, err := GlignIntra.Run(g, batch, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if again.LaneRelaxations != fresh.LaneRelaxations || again.EdgesProcessed != fresh.EdgesProcessed {
					t.Fatalf("after a capped run: %d lane relaxations over %d edges, a fresh run does %d over %d",
						again.LaneRelaxations, again.EdgesProcessed, fresh.LaneRelaxations, fresh.EdgesProcessed)
				}
				checkAgainstReference(t, g, batch, GlignIntra, Options{Workers: 3})
			})
		})
	}
}
