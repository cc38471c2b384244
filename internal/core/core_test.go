package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// Engines under test. Krill is limited to 64-query batches, which all these
// tests respect.
func allEngines() []Engine {
	return []Engine{LigraS, LigraC, Krill, GlignIntra, GraphM, Congra, QueryParallel}
}

func checkAgainstReference(t *testing.T, g *graph.Graph, batch []queries.Query, e Engine, opt Options) {
	t.Helper()
	res, err := e.Run(g, batch, opt)
	checkReferenceValues(t, e.Name(), g, batch, res, err)
	checkArenaPushClean(t, opt.Arena)
}

// checkReferenceValues holds every lane of res to the serial oracle.
func checkReferenceValues(t *testing.T, name string, g *graph.Graph, batch []queries.Query, res *BatchResult, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for qi, q := range batch {
		want := oracle.ReferenceRun(g, q)
		for v := 0; v < g.NumVertices(); v++ {
			if got := res.Value(qi, graph.VertexID(v)); got != want[v] {
				t.Fatalf("%s: query %d (%s) vertex %d = %v, want %v",
					name, qi, q, v, got, want[v])
			}
		}
	}
}

// Theorem 3.2: the query-oblivious frontier (and every other engine) yields
// exactly the per-query sequential results, because all kernels are
// monotone.
func TestAllEnginesMatchReferencePaperExample(t *testing.T) {
	g := graph.PaperExample()
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 1},
		{Kernel: queries.SSSP, Source: 7},
		{Kernel: queries.BFS, Source: 0},
		{Kernel: queries.SSWP, Source: 2},
		{Kernel: queries.SSNP, Source: 0},
		{Kernel: queries.Viterbi, Source: 7},
	}
	for _, e := range allEngines() {
		checkAgainstReference(t, g, batch, e, Options{})
	}
}

func TestAllEnginesMatchReferenceRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		cfg := graph.DefaultRMAT(8, 6, int64(500+trial))
		cfg.Directed = trial%2 == 0
		g := graph.GenerateRMAT(cfg)
		var batch []queries.Query
		kernels := queries.All()
		for i := 0; i < 12; i++ {
			batch = append(batch, queries.Query{
				Kernel: kernels[rng.Intn(len(kernels))],
				Source: graph.VertexID(rng.Intn(g.NumVertices())),
			})
		}
		for _, e := range allEngines() {
			checkAgainstReference(t, g, batch, e, Options{Workers: 4})
		}
	}
}

// Delayed start (any alignment vector) must never change results — it only
// shifts when queries begin (paper §3.3).
func TestAlignmentDoesNotChangeResults(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	rng := rand.New(rand.NewSource(12))
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: graph.VertexID(rng.Intn(g.NumVertices()))},
		{Kernel: queries.SSSP, Source: graph.VertexID(rng.Intn(g.NumVertices()))},
		{Kernel: queries.BFS, Source: graph.VertexID(rng.Intn(g.NumVertices()))},
		{Kernel: queries.SSWP, Source: graph.VertexID(rng.Intn(g.NumVertices()))},
	}
	align := []int{3, 0, 5, 1}
	for _, e := range allEngines() {
		if e.Name() == "Ligra-S" {
			continue // sequential baseline has no global iterations
		}
		checkAgainstReference(t, g, batch, e, Options{Alignment: align, Workers: 4})
	}
}

// The injection schedule's corner cases: a lane delayed far past the fixed
// point of the earlier ones (the traversal idles on an empty frontier until
// it arrives), two lanes injected at one source in one iteration, and an
// iteration cap that cuts the run before the last lane ever starts.
func TestDelayedStartCornerCases(t *testing.T) {
	g := graph.PaperExample()
	engines := []Engine{LigraC, Krill, GlignIntra}

	t.Run("idle-iterations", func(t *testing.T) {
		batch := []queries.Query{
			{Kernel: queries.SSSP, Source: 1},
			{Kernel: queries.BFS, Source: 7},
			{Kernel: queries.SSWP, Source: 2},
		}
		align := []int{0, 40, 41}
		for _, e := range engines {
			checkAgainstReference(t, g, batch, e, Options{Alignment: align, Workers: 2})
			bt := newBatchTrace()
			res, err := e.Run(g, batch, Options{Alignment: align, Workers: 1, Telemetry: bt})
			if err != nil {
				t.Fatal(err)
			}
			if sizes := frontierSizes(bt); res.GlobalIterations <= 41 || sizes[20] != 0 {
				t.Fatalf("%s: %d iterations, sizes %v: want idle iterations until lane 2 starts at 41",
					e.Name(), res.GlobalIterations, sizes)
			}
			its := bt.Snapshot().Iterations
			for _, want := range []struct{ iter, active, injected int }{{0, 1, 1}, {20, 1, 0}, {40, 2, 1}, {41, 3, 1}} {
				if it := its[want.iter]; it.ActiveQueries != want.active || it.InjectedQueries != want.injected {
					t.Fatalf("%s: iteration %d reports active=%d injected=%d, want %d and %d",
						e.Name(), want.iter, it.ActiveQueries, it.InjectedQueries, want.active, want.injected)
				}
			}
		}
	})

	t.Run("shared-source", func(t *testing.T) {
		batch := []queries.Query{
			{Kernel: queries.SSSP, Source: 1},
			{Kernel: queries.BFS, Source: 1},
			{Kernel: queries.SSNP, Source: 1},
		}
		for _, align := range [][]int{nil, {3, 3, 0}, {2, 5, 5}} {
			for _, e := range engines {
				checkAgainstReference(t, g, batch, e, Options{Alignment: align, Workers: 2})
			}
		}
	})

	t.Run("cap-before-last-injection", func(t *testing.T) {
		batch := []queries.Query{
			{Kernel: queries.SSSP, Source: 1},
			{Kernel: queries.SSSP, Source: 7},
		}
		for _, e := range engines {
			bt := newBatchTrace()
			res, err := e.Run(g, batch, Options{Alignment: []int{0, 10}, MaxIterations: 4, Workers: 1, Telemetry: bt})
			if err != nil {
				t.Fatal(err)
			}
			if sizes := frontierSizes(bt); res.GlobalIterations != 4 || len(sizes) != 4 {
				t.Fatalf("%s: %d iterations (sizes %v), want the cap of 4", e.Name(), res.GlobalIterations, sizes)
			}
			for v := 0; v < g.NumVertices(); v++ {
				if got := res.Value(1, graph.VertexID(v)); got != queries.SSSP.Identity() {
					t.Fatalf("%s: lane 1 was never injected, yet vertex %d = %v", e.Name(), v, got)
				}
			}
		}
	})
}

// Paper §3.3: on the Figure 3 graph, the batch [sssp(v2), sssp(v8)] with
// alignment I=[0,0] produces union frontiers of sizes 2,3,5,2,3,1 (Table 2)
// and with I=[2,0] sizes 1,1,2,3,4,1 (Table 3). The two-level engine tracks
// exact per-query frontiers, so its union sizes must reproduce these.
func TestPaperUnionFrontierSizes(t *testing.T) {
	g := graph.PaperExample()
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 1}, // sssp(v2)
		{Kernel: queries.SSSP, Source: 7}, // sssp(v8)
	}
	for _, c := range []struct {
		name  string
		align []int
		want  []int
	}{{"I=[0,0]", nil, []int{2, 3, 5, 2, 3, 1}}, {"I=[2,0]", []int{2, 0}, []int{1, 1, 2, 3, 4, 1}}} {
		bt := newBatchTrace()
		if _, err := LigraC.Run(g, batch, Options{Workers: 1, Alignment: c.align, Telemetry: bt}); err != nil {
			t.Fatal(err)
		}
		if got := frontierSizes(bt); !slices.Equal(got, c.want) {
			t.Fatalf("%s: union sizes = %v, want %v", c.name, got, c.want)
		}
	}
}

// newBatchTrace returns a batch trace to run one batch with, for
// frontierSizes to read.
func newBatchTrace() *telemetry.BatchTrace {
	return telemetry.NewCollector().StartRun("", "").StartBatch("", nil, nil)
}

// frontierSizes returns the frontier size entering each iteration bt
// recorded, in order: the history Tables 1-3 of the paper tabulate.
func frontierSizes(bt *telemetry.BatchTrace) []int {
	its := bt.Snapshot().Iterations
	sizes := make([]int, len(its))
	for i, it := range its {
		sizes[i] = it.FrontierSize
	}
	return sizes
}

// countersOf reads the work counters of a result as one counts value.
func countersOf(res *BatchResult) counts {
	return counts{res.EdgesProcessed, res.LaneRelaxations, res.ValueWrites}
}

// relaxLog is a custom (OpCustom) shortest-path kernel that records every
// Relax call it serves for one lane.
type relaxLog struct {
	lane  int
	calls map[[3]float64]int // (lane, source value, weight) -> calls
}

func (relaxLog) Name() string               { return "relaxLog" }
func (relaxLog) Identity() queries.Value    { return queries.SSSP.Identity() }
func (relaxLog) SourceValue() queries.Value { return 0 }
func (relaxLog) Better(a, b queries.Value) bool {
	return a < b
}
func (k relaxLog) Relax(src queries.Value, w graph.Weight) queries.Value {
	k.calls[[3]float64{float64(k.lane), src, float64(w)}]++
	return src + queries.Value(w)
}

// The query-oblivious engine relaxes, at an active vertex, only the lanes
// whose value changed since the vertex last pushed: on a serial push run over
// a graph whose edges all weigh differently — so a weight names an edge — no
// lane ever proposes the same source value along the same edge twice. (The
// paper's Figure 5-c design, which relaxes every lane of an active vertex,
// re-proposes a lane's unchanged value each time another lane re-activates
// the vertex.)
func TestObliviousRelaxesOnlyChangedLanes(t *testing.T) {
	const n, b = 60, 9
	rng := rand.New(rand.NewSource(13))
	gb := graph.NewBuilder(n, true, true)
	seen := map[[2]int]bool{}
	for w := 1; w <= 5*n; w++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		gb.AddEdge(graph.VertexID(u), graph.VertexID(v), graph.Weight(w))
	}
	g := gb.MustBuild()
	calls := map[[3]float64]int{}
	batch := make([]queries.Query, b)
	align := make([]int, b)
	for i := range batch {
		batch[i] = queries.Query{Kernel: relaxLog{i, calls}, Source: graph.VertexID(rng.Intn(n))}
		align[i] = rng.Intn(3)
	}
	res, err := GlignIntra.Run(g, batch, Options{Workers: 1, Alignment: align})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(calls)) != res.LaneRelaxations {
		for key, c := range calls {
			if c > 1 {
				t.Errorf("lane %v proposed source value %v along the edge of weight %v %d times", key[0], key[1], key[2], c)
			}
		}
		t.Fatalf("%d lane relaxations over %d distinct (lane, source value, edge) triples", res.LaneRelaxations, len(calls))
	}
	for qi, q := range batch {
		want := oracle.ReferenceRun(g, queries.Query{Kernel: queries.SSSP, Source: q.Source})
		for v := range want {
			if got := res.Value(qi, graph.VertexID(v)); got != want[v] {
				t.Fatalf("lane %d vertex %d = %v, want %v", qi, v, got, want[v])
			}
		}
	}
}

func TestKrillRejectsOversizedBatch(t *testing.T) {
	g := graph.PaperExample()
	batch := make([]queries.Query, 65)
	for i := range batch {
		batch[i] = queries.Query{Kernel: queries.BFS, Source: 0}
	}
	if _, err := Krill.Run(g, batch, Options{}); err == nil {
		t.Fatal("65-query batch accepted by Krill engine")
	}
}

func TestBatchValidation(t *testing.T) {
	g := graph.PaperExample()
	for _, e := range allEngines() {
		if _, err := e.Run(g, nil, Options{}); err == nil {
			t.Fatalf("%s: empty batch accepted", e.Name())
		}
		bad := []queries.Query{{Kernel: queries.BFS, Source: 100}}
		if _, err := e.Run(g, bad, Options{}); err == nil {
			t.Fatalf("%s: out-of-range source accepted", e.Name())
		}
		b2 := []queries.Query{{Kernel: queries.BFS, Source: 0}}
		if _, err := e.Run(g, b2, Options{Alignment: []int{1, 2}}); err == nil {
			t.Fatalf("%s: wrong-length alignment accepted", e.Name())
		}
		if _, err := e.Run(g, b2, Options{Alignment: []int{-1}}); err == nil {
			t.Fatalf("%s: negative alignment accepted", e.Name())
		}
	}
}

func TestQueryValuesAccessor(t *testing.T) {
	g := graph.PaperExample()
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 0},
		{Kernel: queries.BFS, Source: 0},
	}
	res, err := GlignIntra.Run(g, batch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sssp := res.QueryValues(0)
	wantSSSP := []queries.Value{0, 17, 4, 12, 5, 7, 6, 22, 10}
	for v, w := range wantSSSP {
		if sssp[v] != w {
			t.Fatalf("sssp values = %v, want %v", sssp, wantSSSP)
		}
	}
	bfs := res.QueryValues(1)
	if bfs[7] != 4 {
		t.Fatalf("bfs(v8) = %v, want 4", bfs[7])
	}
}

func TestTracingDeterministicAndHarmless(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 3},
		{Kernel: queries.BFS, Source: 9},
		{Kernel: queries.SSWP, Source: 21},
	}
	// Also as a batch of one, where Glign-Intra keeps no lane mask to trace.
	for _, batch := range [][]queries.Query{batch, batch[:1]} {
		tracingDeterministicAndHarmless(t, g, batch)
	}
}

func tracingDeterministicAndHarmless(t *testing.T, g *graph.Graph, batch []queries.Query) {
	for _, e := range []Engine{LigraS, LigraC, Krill, GlignIntra} {
		var t1, t2 memtrace.CountingTracer
		r1, err := e.Run(g, batch, Options{Tracer: &t1})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e.Run(g, batch, Options{Tracer: &t2})
		if err != nil {
			t.Fatal(err)
		}
		if t1 != t2 {
			t.Fatalf("%s: tracing not deterministic: %+v vs %+v", e.Name(), t1, t2)
		}
		if t1.Reads == 0 || t1.Writes == 0 {
			t.Fatalf("%s: tracer saw nothing", e.Name())
		}
		// Tracing must not perturb results.
		plain, err := e.Run(g, batch, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for qi := range batch {
			for v := 0; v < g.NumVertices(); v++ {
				if r1.Value(qi, graph.VertexID(v)) != plain.Value(qi, graph.VertexID(v)) {
					t.Fatalf("%s: tracing changed results", e.Name())
				}
			}
		}
		_ = r2
	}
}

// TestModelCountsMatchProduction holds each design's traced model — its
// unfused relaxation, a lane at a time — to the fused push of the
// unified-frontier engines over one lane state, the policy's: at one worker,
// where the counts are deterministic, an untraced run reports the iterations,
// frontier history and work counters of the model a Tracer wraps around it —
// so the push relaxes exactly the lanes the model claims and relaxes.
//
// An all-BFS batch runs on hop lanes at Glign-Intra, which have no model: a
// traced run keeps the value design. There the model is held to an untraced
// run of the value design, and the hop lanes to what they do by
// construction — push each lane once from each vertex it reaches, and write
// its value there once.
func TestModelCountsMatchProduction(t *testing.T) {
	for _, ds := range []graph.Dataset{graph.LJ, graph.RDCA} {
		g := graph.MustGenerate(ds, graph.Tiny)
		var mixed, uniform, bfs []queries.Query
		for v := 0; len(mixed) < 10; v += 97 {
			if src := graph.VertexID(v % g.NumVertices()); g.OutDegree(src) > 0 {
				kernel := queries.BFS
				if len(mixed)%2 == 1 {
					kernel = queries.SSSP
				}
				mixed = append(mixed, queries.Query{Kernel: kernel, Source: src})
				uniform = append(uniform, queries.Query{Kernel: queries.SSSP, Source: src})
				bfs = append(bfs, queries.Query{Kernel: queries.BFS, Source: src})
			}
		}
		delays := make([]int, len(mixed))
		for i := range delays {
			delays[i] = (3*i + 2) % 5
		}
		for _, c := range []struct {
			name  string
			batch []queries.Query
			hop   bool // all BFS: hop lanes at Glign-Intra
		}{{"mixed", mixed, false}, {"uniform", uniform, false}, {"one", uniform[:1], false}, {"bfs", bfs, true}, {"bfs-one", bfs[:1], true}} {
			for _, alignment := range [][]int{nil, delays[:len(c.batch)]} {
				for _, e := range []Engine{GlignIntra, LigraC, Krill, GraphM} {
					opt := Options{Workers: 1, Alignment: alignment, Telemetry: newBatchTrace()}
					plain, err := e.Run(g, c.batch, opt)
					if err != nil {
						t.Fatal(err)
					}
					if e == GlignIntra && c.hop {
						checkHopCounts(t, g, c.batch, plain)
						opt.Telemetry = newBatchTrace()
						plain, err = drive(g, c.batch, opt, func(st *batchSetup, ps *pushState) lanePolicy {
							return newUnifiedPolicy(g, st, ps, unionOnly)
						}, -1)
						if err != nil {
							t.Fatal(err)
						}
					}
					plainSizes := frontierSizes(opt.Telemetry)
					opt.Telemetry, opt.Tracer = newBatchTrace(), new(memtrace.CountingTracer)
					model, err := e.Run(g, c.batch, opt)
					if err != nil {
						t.Fatal(err)
					}
					modelSizes := frontierSizes(opt.Telemetry)
					if plain.GlobalIterations != model.GlobalIterations ||
						plain.EdgesProcessed != model.EdgesProcessed ||
						plain.LaneRelaxations != model.LaneRelaxations ||
						plain.ValueWrites != model.ValueWrites ||
						!slices.Equal(plainSizes, modelSizes) {
						t.Errorf("%s/%s/%s/delayed=%v: production %d iterations, %d edges, %d relaxations, %d writes, frontiers %v; model %d, %d, %d, %d, %v",
							e.Name(), ds, c.name, alignment != nil,
							plain.GlobalIterations, plain.EdgesProcessed, plain.LaneRelaxations, plain.ValueWrites, plainSizes,
							model.GlobalIterations, model.EdgesProcessed, model.LaneRelaxations, model.ValueWrites, modelSizes)
					}
				}
			}
		}
	}
}

// checkHopCounts holds a hop-lane run of an all-BFS batch to its counts by
// construction: a lane writes its value once at each vertex it reaches,
// source included, and pushes there once, along every out-edge.
func checkHopCounts(t *testing.T, g *graph.Graph, batch []queries.Query, res *BatchResult) {
	t.Helper()
	var writes, relaxes int64
	for _, q := range batch {
		for v, d := range oracle.ReferenceRun(g, q) {
			if d != q.Kernel.Identity() {
				writes++
				relaxes += int64(g.OutDegree(graph.VertexID(v)))
			}
		}
	}
	if res.ValueWrites != writes || res.LaneRelaxations != relaxes {
		t.Errorf("hop lanes on %s B=%d: %d value writes, %d lane relaxations; the lanes reach %d (vertex, lane) pairs with %d out-edges",
			g.Name, len(batch), res.ValueWrites, res.LaneRelaxations, writes, relaxes)
	}
}

func TestFootprintOrdering(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	const b = 64
	fS := FootprintOf(LigraS, g, b)
	fC := FootprintOf(LigraC, g, b)
	fK := FootprintOf(Krill, g, b)
	fG := FootprintOf(GlignIntra, g, b)
	// Frontier footprint: Ligra-C and Krill both carry per-query activation
	// state as a cur/next pair (B bits per vertex each — identical size at
	// B=64, where Krill's advantage is layout, not bytes), while Glign keeps
	// a single unified frontier pair and one changed-lane mask: at B=64 a
	// word a vertex, half of Krill's pair and 1/64 of the value array. (The
	// paper's Figure 5-c design has no mask, and Table 11 there shows a 64x
	// collapse; see DESIGN.md S7 for what the mask buys.)
	if fC.FrontierBytes < fK.FrontierBytes || fK.FrontierBytes <= fG.FrontierBytes {
		t.Fatalf("frontier bytes C=%d K=%d G=%d violate C >= K > G",
			fC.FrontierBytes, fK.FrontierBytes, fG.FrontierBytes)
	}
	bitmaps := 2 * frontierBitmapBytes(g.NumVertices())
	if mask := fG.FrontierBytes - bitmaps; mask != fG.ValueBytes/b || 2*mask != fK.FrontierBytes-bitmaps {
		t.Fatalf("Glign's lane mask is %d bytes: want 1/%d of the %d value bytes and half of Krill's %d mask bytes",
			mask, b, fG.ValueBytes, fK.FrontierBytes-bitmaps)
	}
	if fS.ValueBytes >= fC.ValueBytes {
		t.Fatal("sequential baseline should hold one query's values at a time")
	}
	if fG.Total() <= 0 || fG.GraphBytes != g.MemoryFootprintBytes() {
		t.Fatal("footprint totals broken")
	}
}

// Property: on random small graphs, for random batches mixing all kernels
// and random alignment vectors, the oblivious engine equals the two-level
// engine equals the reference (the full Theorem 3.2 statement).
func TestQuickTheorem32(t *testing.T) {
	kernels := queries.All()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		gb := graph.NewBuilder(n, rng.Intn(2) == 0, true)
		for i := 0; i < 3*n; i++ {
			gb.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)),
				graph.Weight(1+rng.Intn(16)))
		}
		g := gb.MustBuild()
		b := 1 + rng.Intn(8)
		batch := make([]queries.Query, b)
		align := make([]int, b)
		for i := range batch {
			batch[i] = queries.Query{
				Kernel: kernels[rng.Intn(len(kernels))],
				Source: graph.VertexID(rng.Intn(n)),
			}
			align[i] = rng.Intn(4)
		}
		opt := Options{Workers: 2, Alignment: align}
		ob, err := GlignIntra.Run(g, batch, opt)
		if err != nil {
			return false
		}
		tl, err := LigraC.Run(g, batch, opt)
		if err != nil {
			return false
		}
		for qi, q := range batch {
			want := oracle.ReferenceRun(g, q)
			for v := 0; v < n; v++ {
				if ob.Value(qi, graph.VertexID(v)) != want[v] {
					return false
				}
				if tl.Value(qi, graph.VertexID(v)) != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
