package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// leakCheck records the goroutine count, with the default pool's workers
// already running, and returns a func that fails t unless the count is back
// at or below it within 2 s, dumping every goroutine's stack if not.
func leakCheck(t *testing.T) func() {
	t.Helper()
	par.Default()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines after the run, %d before:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// TestRunApartJoinsItsGoroutines holds runApart's goroutine lifetime: the
// goroutines it launches, four here, are all joined before it returns.
func TestRunApartJoinsItsGoroutines(t *testing.T) {
	noLeak := leakCheck(t)
	g := graph.PaperExample()
	var batch []queries.Query
	for src := 0; src < 8; src++ {
		batch = append(batch, queries.Query{Kernel: queries.SSSP, Source: graph.VertexID(src)})
	}
	if _, err := runApart(g, batch, Options{Workers: 2}, 4); err != nil {
		t.Fatal(err)
	}
	noLeak()
}

// TestConcurrentBatchStress drives several batches through the concurrent
// engines at once — sharing one graph and one telemetry collector — across
// GOMAXPROCS 1, 2 and 8. Its job is to give the race
// detector (verify.sh runs this package under -race) real interleavings to
// bite on: CAS relaxations, frontier unions, telemetry recording and the
// BatchResult counter protocol all run concurrently here.
func TestConcurrentBatchStress(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
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

// checkArenaPushClean holds the arena's push state to its invariant (see
// pushState): every frontier empty, the lane frontiers' included, their
// bitmaps and each mask all-zero over their whole capacity, and each
// accumulator a slot made empty — merging it into an empty subset over the
// frontiers' universe adds nothing.
func checkArenaPushClean(t *testing.T, a *Arena) {
	t.Helper()
	if a == nil {
		return
	}
	s := a.push.Swap(nil) // taken out, so no batch fills it meanwhile
	if s == nil {
		return
	}
	defer a.push.Store(s)
	zero := func(what string, words []atomic.Uint64) {
		t.Helper()
		words = words[:cap(words)]
		for i := range words {
			if w := words[i].Load(); w != 0 {
				t.Fatalf("%s has word %d = %#x", what, i, w)
			}
		}
	}
	for _, f := range []*frontier.Subset{s.cur, s.next} {
		zero("a recycled frontier", f.Words())
	}
	for i := range s.pairs.Cur {
		zero(fmt.Sprintf("recycled lane frontier Cur[%d]", i), s.pairs.Cur[i].Words())
		zero(fmt.Sprintf("recycled lane frontier Next[%d]", i), s.pairs.Next[i].Words())
	}
	for i, m := range s.masks {
		if m != nil {
			zero(fmt.Sprintf("recycled lane mask %d", i), m.words)
		}
	}
	for slot, acc := range s.accs {
		if acc == nil {
			continue
		}
		got := frontier.New(s.cur.Universe())
		got.Merge(acc)
		if n := got.Count(); n != 0 {
			t.Fatalf("recycled accumulator of slot %d held %d vertices: %v", slot, n, got.Sparse())
		}
	}
}

// TestTracedRunRecyclesPushState runs, for each unified-frontier engine, a
// traced batch and then an untraced one on one Arena. The traced model walks
// the policy's own state, so the traced batch hands its push state back clean,
// and the untraced batch after it does exactly the work of one on a fresh
// arena.
func TestTracedRunRecyclesPushState(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	batch := stressBatch(13)
	for _, e := range []Engine{GlignIntra, Krill, LigraC} {
		freshTrace := newBatchTrace()
		fresh, err := e.Run(g, batch, Options{Workers: 1, Telemetry: freshTrace})
		if err != nil {
			t.Fatal(err)
		}
		arena := new(Arena)
		traced, err := e.Run(g, batch, Options{Workers: 1, Arena: arena, Tracer: new(memtrace.CountingTracer)})
		if err != nil {
			t.Fatal(err)
		}
		traced.Release()
		if s := arena.push.Load(); s == nil || (e != LigraC && s.masks[0] == nil) || (e == Krill && s.masks[1] == nil) {
			t.Fatalf("%s: a traced batch that reached its fixed point did not hand its push state and masks back", e.Name())
		}
		checkArenaPushClean(t, arena)
		againTrace := newBatchTrace()
		again, err := e.Run(g, batch, Options{Workers: 1, Arena: arena, Telemetry: againTrace})
		if err != nil {
			t.Fatal(err)
		}
		if again.GlobalIterations != fresh.GlobalIterations || again.EdgesProcessed != fresh.EdgesProcessed ||
			again.LaneRelaxations != fresh.LaneRelaxations || again.ValueWrites != fresh.ValueWrites ||
			!slices.Equal(frontierSizes(againTrace), frontierSizes(freshTrace)) {
			t.Errorf("%s after a traced batch: %d iterations, %d edges, %d relaxations, %d writes; on a fresh arena %d, %d, %d, %d",
				e.Name(), again.GlobalIterations, again.EdgesProcessed, again.LaneRelaxations, again.ValueWrites,
				fresh.GlobalIterations, fresh.EdgesProcessed, fresh.LaneRelaxations, fresh.ValueWrites)
		}
		again.Release()
		checkAgainstReference(t, g, batch, e, Options{Workers: 1, Arena: arena})
	}
}

// TestObliviousPushersUnderGC runs Glign-Intra batches with a collection
// every few allocations (debug.SetGCPercent(1)), so collections land
// mid-iteration while push workers hold unmerged accumulators, across
// GOMAXPROCS 1, 2 and 8 (verify.sh runs this package under -race). Every
// batch must equal oracle.ReferenceRun bit for bit and leave the arena's
// accumulators empty: a scratch lost to the collector would lose vertices of
// the next frontier, and with them answers.
func TestObliviousPushersUnderGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	social, road := graph.MustGenerate(graph.LJ, graph.Tiny), graph.MustGenerate(graph.RDCA, graph.Small)
	bfs := func(b int) []queries.Query {
		batch := stressBatch(b)
		for i := range batch {
			batch[i].Kernel = queries.BFS
		}
		return batch
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			arena := new(Arena)
			for _, c := range []struct {
				g     *graph.Graph
				batch []queries.Query
			}{{social, stressBatch(13)}, {road, bfs(1)}, {road, bfs(8)}, {social, bfs(1)}} {
				checkAgainstReference(t, c.g, c.batch, GlignIntra, Options{Workers: procs + 1, Arena: arena})
			}
		})
	}
}

// TestChangedLaneMaskCorners takes the query-oblivious engine's changed-lane
// mask through the places its bookkeeping could slip, across GOMAXPROCS 1, 2
// and 8 (verify.sh runs this package under -race), each against per-lane
// oracle.ReferenceRun: lanes injected at a vertex that is already active for
// another lane; and a run stopped by MaxIterations with bits still set, whose
// mask must not reach the batch after it on the same arena.
func TestChangedLaneMaskCorners(t *testing.T) {
	g := graph.MustGenerate(graph.TW, graph.Tiny)
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
			// One arena for the leg: each corner starts on the mask (and the
			// value array) the one before it left.
			arena := new(Arena)

			t.Run("inject-at-active-vertex", func(t *testing.T) {
				// Lane 0 reaches nbrs[0] in iteration 0, so it is in the
				// frontier of iteration 1, when lanes 1 and 2 start there.
				batch := []queries.Query{
					{Kernel: queries.SSSP, Source: hub},
					{Kernel: queries.BFS, Source: nbrs[0]},
					{Kernel: queries.KHop(3), Source: nbrs[0]},
				}
				checkAgainstReference(t, g, batch, GlignIntra, Options{Alignment: []int{0, 1, 1}, Workers: 3, Arena: arena})
			})

			t.Run("capped-then-second-batch", func(t *testing.T) {
				batch := stressBatch(13)
				fresh, err := GlignIntra.Run(g, batch, Options{Workers: 1, Arena: arena})
				if err != nil {
					t.Fatal(err)
				}
				fresh.Release()
				if s := arena.push.Load(); s == nil || s.masks[0] == nil {
					t.Fatal("a batch that reached its fixed point did not hand its mask back")
				}
				capped, err := GlignIntra.Run(g, batch, Options{Workers: 1, MaxIterations: 2, Arena: arena})
				if err != nil {
					t.Fatal(err)
				}
				if capped.GlobalIterations != 2 {
					t.Fatalf("capped run took %d iterations, want 2", capped.GlobalIterations)
				}
				capped.Release()
				if arena.push.Load() != nil {
					t.Fatal("a capped batch handed its push state back")
				}
				// Serial runs repeat exactly, so a leaked bit — a lane relaxed
				// that had not changed — would show in the counters.
				again, err := GlignIntra.Run(g, batch, Options{Workers: 1, Arena: arena})
				if err != nil {
					t.Fatal(err)
				}
				if again.LaneRelaxations != fresh.LaneRelaxations || again.EdgesProcessed != fresh.EdgesProcessed {
					t.Fatalf("after a capped run: %d lane relaxations over %d edges, a fresh run does %d over %d",
						again.LaneRelaxations, again.EdgesProcessed, fresh.LaneRelaxations, fresh.EdgesProcessed)
				}
				again.Release()
				checkAgainstReference(t, g, batch, GlignIntra, Options{Workers: 3, Arena: arena})
			})
		})
	}
}

// goldenMemo is oracle.GoldenValues remembered per (graph, query): the arena
// corners evaluate the same few lanes many times over.
var goldenMemo sync.Map // goldenKey -> []queries.Value

type goldenKey struct {
	g      *graph.Graph
	kernel string
	source graph.VertexID
}

func goldenValues(g *graph.Graph, q queries.Query) []queries.Value {
	key := goldenKey{g, q.Kernel.Name(), q.Source}
	if v, ok := goldenMemo.Load(key); ok {
		return v.([]queries.Value)
	}
	v, _ := goldenMemo.LoadOrStore(key, oracle.GoldenValues(g, q))
	return v.([]queries.Value)
}

// runOnArena evaluates batch with e on arena, holds every cell of the result
// to the per-lane golden evaluator (oracle.ReferenceRun for monotone lanes,
// the serial Jacobi for convergence ones), and releases the result.
func runOnArena(t *testing.T, arena *Arena, g *graph.Graph, batch []queries.Query, e Engine, opt Options) {
	t.Helper()
	opt.Arena = arena
	res, err := e.Run(g, batch, opt)
	if err != nil {
		t.Errorf("%s B=%d: %v", e.Name(), len(batch), err)
		return
	}
	defer res.Release()
	if res.Values.Len() != g.NumVertices()*len(batch) {
		t.Errorf("%s B=%d: value array of %d cells, want %d", e.Name(), len(batch), res.Values.Len(), g.NumVertices()*len(batch))
		return
	}
	for qi, q := range batch {
		want := goldenValues(g, q)
		for v, wv := range want {
			if got := res.Value(qi, graph.VertexID(v)); got != wv {
				t.Errorf("%s B=%d: query %d (%s) vertex %d = %v, want %v", e.Name(), len(batch), qi, q, v, got, wv)
				return
			}
		}
	}
}

// TestArenaRecycledStateCorners takes one Arena through the places where a
// batch could see what an earlier batch left in a recycled structure, across
// GOMAXPROCS 1, 2 and 8 (verify.sh runs this package under -race), every batch
// checked cell by cell against the per-lane reference.
func TestArenaRecycledStateCorners(t *testing.T) {
	// Small, to keep the -race leg short; bigger runs in one corner only.
	g, bigger := graph.GenerateRMAT(graph.DefaultRMAT(9, 8, 77)), graph.MustGenerate(graph.TW, graph.Tiny)
	if bigger.NumVertices() <= g.NumVertices() {
		t.Fatalf("the second graph has %d vertices, the first %d", bigger.NumVertices(), g.NumVertices())
	}
	pagerank := []queries.Query{
		{Kernel: queries.PageRank, Source: 0},
		{Kernel: queries.LabelProp, Source: 3},
		{Kernel: queries.PageRank, Source: 7},
	}
	uniform := func(b int) []queries.Query {
		batch := stressBatch(b)
		for i := range batch {
			batch[i].Kernel = queries.SSSP
		}
		return batch
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			t.Run("wide-narrow-wide", func(t *testing.T) {
				arena := new(Arena)
				for _, b := range []int{64, 4, 64} {
					runOnArena(t, arena, g, uniform(b), GlignIntra, Options{Workers: 3})
					if got := arena.vals.Load(); got == nil || got.Len() != g.NumVertices()*b {
						t.Fatalf("after B=%d the arena holds %v", b, got)
					}
				}
				first := arena.vals.Load()
				runOnArena(t, arena, g, stressBatch(13), LigraC, Options{Workers: 2})
				if arena.vals.Load() != first {
					t.Fatal("a narrower batch replaced the arena's value array instead of reslicing it")
				}
			})

			t.Run("monotone-pagerank-monotone", func(t *testing.T) {
				arena := new(Arena)
				for _, e := range []Engine{GlignIntra, Krill} {
					runOnArena(t, arena, g, stressBatch(8), e, Options{Workers: 3})
					runOnArena(t, arena, g, pagerank, e, Options{Workers: 3})
					runOnArena(t, arena, g, pagerank[:2], e, Options{Workers: 2})
					runOnArena(t, arena, g, stressBatch(5), e, Options{Workers: 3})
					checkArenaPushClean(t, arena)
				}
			})

			t.Run("krill-both-masks", func(t *testing.T) {
				arena := new(Arena)
				runOnArena(t, arena, g, stressBatch(8), Krill, Options{Workers: 3})
				s := arena.push.Load()
				if s == nil || s.masks[0] == nil || s.masks[1] == nil {
					t.Fatal("a Krill batch that reached its fixed point did not hand back both its masks")
				}
				masks := s.masks
				runOnArena(t, arena, g, stressBatch(5), Krill, Options{Workers: 3})
				if s := arena.push.Load(); s == nil || s.masks != masks {
					t.Fatal("the next Krill batch did not run on the masks the first handed back")
				}
				checkArenaPushClean(t, arena)
			})

			t.Run("monotone-then-pagerank-widths", func(t *testing.T) {
				arena := new(Arena)
				runOnArena(t, arena, g, stressBatch(8), GlignIntra, Options{Workers: 3})
				var wide *jacobiSlabs
				for _, b := range []int{3, 16, 2} {
					batch := stressBatch(b)
					for i := range batch {
						batch[i].Kernel = queries.PageRank
					}
					runOnArena(t, arena, g, batch, GlignIntra, Options{Workers: 3})
					s := arena.slabs.Load()
					if s == nil || len(s.vals) != g.NumVertices()*b || len(s.old) != len(s.vals) || len(s.next) != len(s.vals) {
						t.Fatalf("after PageRank at B=%d the arena holds slabs %v", b, s)
					}
					if b == 2 && s != wide {
						t.Fatal("a narrower PageRank batch replaced the arena's slabs instead of reslicing them")
					}
					wide = s
				}
			})

			// Every design on one arena, each batch of another width than the
			// one before: Ligra-C and GraphM share the lane frontiers, Krill
			// and the hop lanes the masks, and a capped GraphM batch, whose
			// lane frontiers still hold members, must drop them — the Ligra-C
			// batch after it would read them as active.
			t.Run("designs", func(t *testing.T) {
				arena := new(Arena)
				bfs := stressBatch(64)
				for i := range bfs {
					bfs[i].Kernel = queries.BFS
				}
				for _, leg := range []struct {
					e     Engine
					batch []queries.Query
				}{{LigraC, stressBatch(65)}, {GraphM, stressBatch(3)}, {GlignIntra, bfs}, {Krill, stressBatch(16)}} {
					runOnArena(t, arena, g, leg.batch, leg.e, Options{Workers: 3})
					checkArenaPushClean(t, arena)
				}
				capped := Options{Workers: 1, MaxIterations: 2}
				fresh, err := GraphM.Run(g, stressBatch(70), capped)
				if err != nil {
					t.Fatal(err)
				}
				capped.Arena = arena
				recycled, err := GraphM.Run(g, stressBatch(70), capped)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < fresh.Values.Len(); i++ {
					if got, want := recycled.Values.Get(i), fresh.Values.Get(i); got != want {
						t.Fatalf("a capped GraphM batch on a recycled arena has cell %d = %v, on none %v", i, got, want)
					}
				}
				recycled.Release()
				if arena.push.Load() != nil {
					t.Fatal("a capped GraphM batch handed its push state back")
				}
				runOnArena(t, arena, g, stressBatch(2), LigraC, Options{Workers: 3})
				checkArenaPushClean(t, arena)
				runOnArena(t, arena, g, uniform(5), GlignIntra, Options{Workers: 3})
				checkArenaPushClean(t, arena)
			})

			t.Run("capped-then-full", func(t *testing.T) {
				arena := new(Arena)
				for _, batch := range [][]queries.Query{stressBatch(13), pagerank} {
					capped, err := GlignIntra.Run(g, batch, Options{Workers: 3, MaxIterations: 2, Arena: arena})
					if err != nil {
						t.Fatal(err)
					}
					capped.Release()
					runOnArena(t, arena, g, batch, GlignIntra, Options{Workers: 3})
					checkArenaPushClean(t, arena)
				}
			})

			t.Run("failed-then-good", func(t *testing.T) {
				arena := new(Arena)
				runOnArena(t, arena, g, stressBatch(8), GlignIntra, Options{Workers: 3})
				runOnArena(t, arena, g, pagerank, GlignIntra, Options{Workers: 3})
				vals, slabs, push := arena.vals.Load(), arena.slabs.Load(), arena.push.Load()
				outOfRange := graph.VertexID(g.NumVertices())
				for name, bad := range map[string][]queries.Query{
					"monotone source out of range": {{Kernel: queries.BFS, Source: 1}, {Kernel: queries.SSSP, Source: outOfRange}},
					"pagerank source out of range": {{Kernel: queries.PageRank, Source: outOfRange}},
					"mixed paradigm":               {{Kernel: queries.BFS, Source: 1}, {Kernel: queries.PageRank, Source: 2}},
				} {
					if _, err := GlignIntra.Run(g, bad, Options{Workers: 3, Arena: arena}); err == nil {
						t.Fatalf("%s: no error", name)
					}
					if arena.vals.Load() != vals || arena.slabs.Load() != slabs || arena.push.Load() != push {
						t.Fatalf("%s: the failed batch took something out of the arena and did not put it back", name)
					}
				}
				runOnArena(t, arena, g, stressBatch(8), GlignIntra, Options{Workers: 3})
				runOnArena(t, arena, g, pagerank, GlignIntra, Options{Workers: 3})
			})

			t.Run("two-goroutines", func(t *testing.T) {
				arena := new(Arena)
				var wg sync.WaitGroup
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						for rep := 0; rep < 3; rep++ {
							e := []Engine{GlignIntra, LigraC, GraphM}[(i+rep)%3]
							runOnArena(t, arena, g, stressBatch(5+8*((i+rep)%2)), e, Options{Workers: 2})
							runOnArena(t, arena, g, pagerank[:2+(i+rep)%2], GlignIntra, Options{Workers: 2})
						}
					}(i)
				}
				wg.Wait()
				checkArenaPushClean(t, arena)
			})

			t.Run("second-larger-graph", func(t *testing.T) {
				arena := new(Arena)
				for _, h := range []*graph.Graph{g, bigger, g} {
					runOnArena(t, arena, h, stressBatch(8), GlignIntra, Options{Workers: 3})
					runOnArena(t, arena, h, pagerank, GlignIntra, Options{Workers: 3})
					checkArenaPushClean(t, arena)
					if k := arena.geo.Load(); k == nil || k.g != h || len(k.outDeg) != h.NumVertices() {
						t.Fatalf("the arena's Jacobi geometry is not that of the graph of %d vertices it last ran on", h.NumVertices())
					}
				}
				geo := arena.geo.Load()
				runOnArena(t, arena, g, pagerank, GlignIntra, Options{Workers: 3})
				if arena.geo.Load() != geo {
					t.Fatal("a second batch on the same graph derived the Jacobi geometry again")
				}
			})

			t.Run("read-after-release", func(t *testing.T) {
				for _, arena := range []*Arena{nil, new(Arena)} {
					res, err := GlignIntra.Run(g, stressBatch(3), Options{Workers: 2, Arena: arena})
					if err != nil {
						t.Fatal(err)
					}
					res.Release()
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("arena %v: reading a released result did not panic", arena != nil)
							}
						}()
						res.Value(0, 0)
					}()
				}
			})
		})
	}
}
