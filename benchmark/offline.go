package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	glign "github.com/glign/glign"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/sched"
	"github.com/glign/glign/internal/systems"
	"github.com/glign/glign/internal/telemetry"
)

// coldSetups is how many times a run repeats the whole set-up to report its
// median as setup_s.
const coldSetups = 3

// oracleSample is how many queries of the untimed rep Report.Verify
// recomputes with the serial golden evaluator.
const oracleSample = 8

const mb = 1e6

// offlineEnv is what set-up builds for an offline workload.
type offlineEnv struct {
	g    *graph.Graph
	pool *par.Pool
	rt   *glign.Runtime
}

// setupOffline is one cold set-up: generate the graph, start the dedicated
// pool, construct the runtime and build its alignment profile.
func setupOffline(w workloadSpec, tr *tracer, parent int) (*offlineEnv, error) {
	sp := tr.begin("graph.generate", parent, -1, -1)
	g, err := graph.Generate(w.Dataset, w.Size)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	pool := par.NewPool(benchWorkers)
	rt, err := glign.NewRuntime(g, glign.WithWorkers(benchWorkers), glign.WithPool(pool), glign.WithBatchSize(w.Batch))
	if err != nil {
		pool.Close()
		return nil, err
	}
	sp = tr.begin("align.profile", parent, -1, -1)
	rt.Profile()
	tr.end(sp)
	return &offlineEnv{g: g, pool: pool, rt: rt}, nil
}

// medianSetup runs fn (one cold set-up returning a release function) n
// times, releasing all but the last, and returns the median wall time. The
// collector runs between set-ups so each starts from the same heap.
func medianSetup(n int, fn func(keep bool) error) (float64, error) {
	var walls []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(i == n-1); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return median(walls), nil
}

// fingerprint condenses one result vector to a word, so every timed rep's
// 256 vectors can be held against the verified rep's without keeping them.
func fingerprint(vals []queries.Value) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

func fingerprints(n int, values func(i int) []queries.Value) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = fingerprint(values(i))
	}
	return out
}

// mismatches counts the queries whose result differs from the verified
// rep's. Every engine computes exact fixed points, so any difference is a
// wrong answer.
func mismatches(want []uint64, values func(i int) []queries.Value) int {
	bad := 0
	for i, w := range want {
		if fingerprint(values(i)) != w {
			bad++
		}
	}
	return bad
}

// repBudget decides whether another timed rep fits: reps run until the
// budget is spent, judged at the half-way point of the next rep so the
// measured time straddles the budget instead of always overshooting it.
func repBudget(elapsed, budget time.Duration, reps int) bool {
	if reps == 0 {
		return true
	}
	next := elapsed / time.Duration(reps)
	return elapsed+next/2 < budget
}

// runOffline is the untraced pass of an offline workload: three cold
// set-ups, then timed reps of Runtime.Run until cfg.seconds are spent. The
// reps cycle through the workload's w.Buffers buffers drawn from the seed
// (draws 1, 2, ...; draw 0 is the traced pass's), so every buffer is
// evaluated several times, and the timings reported are those of each
// buffer's quiet rep (quietRun): every batch at the shortest time any of its
// evaluations took. The first evaluation of a buffer is its warm-up, outside
// the budget and checked by the oracle; every later one is held against its
// fingerprints.
func runOffline(w workloadSpec, cfg config) (*passResult, error) {
	res := newPassResult(w.Name, endToEnd)
	var env *offlineEnv
	setup, err := medianSetup(cfg.setups(), func(keep bool) error {
		e, err := setupOffline(w, nil, -1)
		if err != nil {
			return err
		}
		if keep {
			env = e
		} else {
			e.pool.Close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer env.pool.Close()

	quiet := make([]quietRun, w.Buffers)
	// observe offers one evaluation's segments to its buffer's quiet rep.
	observe := func(k int, r *glign.Report, wall time.Duration) error {
		done := make([]float64, r.NumQueries())
		for i := range done {
			done[i] = r.LatencySeconds(i)
		}
		if !quiet[k].observe(done, wall.Seconds()) {
			return fmt.Errorf("benchmark: %s: an evaluation cut buffer %d into other batches than the one before", w.Name, k)
		}
		return nil
	}

	// The warm-up's segments are offered too: where it ran cold they are
	// simply never the shortest.
	bufs := make([][]queries.Query, w.Buffers)
	want := make([][]uint64, w.Buffers)
	for k := range bufs {
		if bufs[k], err = materializeBuffer(w, env.g, env.rt.Profile(), cfg.seed, k+1, cfg.out); err != nil {
			return nil, err
		}
		start := time.Now()
		r, err := env.rt.Run(bufs[k])
		wall := time.Since(start)
		if err != nil {
			return nil, err
		}
		res.attempt(len(bufs[k]))
		if err := r.Verify(oracleSample); err != nil {
			res.fail(1, err.Error())
		}
		want[k] = fingerprints(len(bufs[k]), r.Values)
		if err := observe(k, r, wall); err != nil {
			return nil, err
		}
	}

	var walls []float64
	var allocBytes uint64
	var ms0, ms1 runtime.MemStats
	budget := cfg.budget()
	for elapsed := time.Duration(0); repBudget(elapsed, budget, len(walls)) && len(walls) < cfg.maxReps(); {
		k := len(walls) % w.Buffers
		// Start every rep from the same heap, not from wherever the
		// collector stood in the previous rep's garbage.
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		r, err := env.rt.Run(bufs[k])
		wall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		elapsed += wall
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		walls = append(walls, wall.Seconds())
		res.attempt(len(bufs[k]))
		if bad := mismatches(want[k], r.Values); bad > 0 {
			res.fail(bad, fmt.Sprintf("%d queries of timed rep %d differ from the verified rep", bad, len(walls)))
		}
		if err := observe(k, r, wall); err != nil {
			return nil, err
		}
	}

	// Pooled over the buffers: one buffer's completion times are as many
	// steps as it has batches, and its p50 jumps by a whole batch with the
	// draw.
	var quietWalls, lat []float64
	var quietTotal float64
	for k := range quiet {
		quietWalls = append(quietWalls, quiet[k].wall())
		quietTotal += quiet[k].wall()
		lat = append(lat, quiet[k].latenciesMs()...)
	}
	evaluated := float64(len(walls) * bufferSize)
	res.samples = len(lat)
	res.repCV = cv(walls)
	res.note(fmt.Sprintf("timed rep walls (s): %.4g", walls))
	res.note(fmt.Sprintf("quiet rep walls (s), one a buffer: %.4g; median timed rep wall %.4g s", quietWalls, median(walls)))
	res.m.set("setup_s", setup)
	res.m.set("queries_per_s", float64(len(lat))/quietTotal)
	res.m.set("latency_p50_ms", percentile(lat, 50))
	res.m.set("latency_p90_ms", percentile(lat, tailPercentile))
	res.note(fmt.Sprintf("latency p99 (not gated): %.4f ms", percentile(lat, 99)))
	res.m.set("alloc_mb_per_query", float64(allocBytes)/evaluated/mb)
	return res, nil
}

// tracedCounts are the counters the traced reps' call-by-call evaluations
// add up, beyond their spans.
type tracedCounts struct {
	reps        int
	batches     [][]int // of the last rep; every rep batches the same buffer alike
	monoIters   int
	convRounds  int
	edges       int64
	relaxations int64
	writes      int64
	delaySum    int
	delayMax    int
	delayed     int
	allocBytes  uint64
	mallocs     uint64
	monoBatches int
}

// tracedGlignRep re-creates the loop of systems.Run for the Glign method
// call by call, with a span around every call into a layer and a telemetry
// collector attached, so each layer's time is taken from outside it. It adds
// the rep's counters to out and returns the result vectors by buffer index.
func tracedGlignRep(env *offlineEnv, w workloadSpec, buf []queries.Query, col *telemetry.Collector, tr *tracer, root int, out *tracedCounts) ([][]queries.Value, error) {
	prof := env.rt.Profile()
	cfg := systems.Config{BatchSize: w.Batch, Workers: benchWorkers, Pool: env.pool}
	run := col.StartRun(systems.Glign, "")
	plan, err := systems.PlanFor(systems.Glign, env.g, prof, cfg, run)
	if err != nil {
		return nil, err
	}
	run.SetPolicy(plan.Policy.Name())
	rep := out.reps
	out.reps++
	values := make([][]queries.Value, len(buf))

	top := tr.begin("systems.run", root, rep, -1)
	sp := tr.begin("sched.make_batches", top, rep, -1)
	batches := plan.Policy.MakeBatches(buf, w.Batch)
	tr.end(sp)
	sp = tr.begin("sched.split_paradigm", top, rep, -1)
	batches = sched.SplitParadigm(buf, batches)
	tr.end(sp)
	out.batches = batches
	var ms0, ms1 runtime.MemStats
	for bi, idx := range batches {
		batch := sched.Select(buf, idx)
		opt := core.Options{Workers: benchWorkers, Pool: env.pool}
		conv := queries.AnyConvergent(batch)
		if plan.Aligned && !conv {
			sp = tr.begin("align.vector", top, rep, bi)
			opt.Alignment = prof.AlignmentVector(batch)
			tr.end(sp)
			for _, d := range opt.Alignment {
				out.delaySum += d
				out.delayMax = max(out.delayMax, d)
			}
			out.delayed += len(opt.Alignment)
		}
		bt := run.StartBatch(plan.Engine.Name(), idx, opt.Alignment)
		opt.Telemetry = bt
		// Reading the allocator's counters stops the world; its own span
		// keeps that out of systems.run's self time.
		sp = tr.begin("bench.memstats", top, rep, bi)
		runtime.ReadMemStats(&ms0)
		tr.end(sp)
		name := "core.run"
		if conv {
			name = "core.conv_run"
		}
		sp = tr.begin(name, top, rep, bi)
		br, err := plan.Engine.Run(env.g, batch, opt)
		bt.Finish(tr.end(sp))
		if err != nil {
			return nil, fmt.Errorf("benchmark: %s batch %d: %w", w.Name, bi, err)
		}
		sp = tr.begin("bench.memstats", top, rep, bi)
		runtime.ReadMemStats(&ms1)
		tr.end(sp)
		if conv {
			out.convRounds += br.GlobalIterations
		} else {
			out.monoIters += br.GlobalIterations
			out.monoBatches++
			out.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			out.mallocs += ms1.Mallocs - ms0.Mallocs
		}
		out.edges += atomic.LoadInt64(&br.EdgesProcessed)
		out.relaxations += atomic.LoadInt64(&br.LaneRelaxations)
		out.writes += atomic.LoadInt64(&br.ValueWrites)
		sp = tr.begin("core.extract", top, rep, bi)
		for qi, bufferIdx := range idx {
			values[bufferIdx] = br.QueryValues(qi)
		}
		tr.end(sp)
	}
	run.Finish(tr.end(top))
	return values, nil
}

// timedSystemsRuns evaluates the buffer with systems.Run under the given
// method and worker count until its share of the budget is spent, checks
// every result against the verified rep, and returns the median wall time.
func timedSystemsRuns(env *offlineEnv, w workloadSpec, buf []queries.Query, method string, workers int, budget time.Duration, maxReps int, want []uint64, res *passResult) (float64, error) {
	cfg := systems.Config{BatchSize: w.Batch, Workers: workers, Pool: env.pool, KeepValues: true}
	if systems.NeedsProfile(method) {
		cfg.Profile = env.rt.Profile()
	}
	var walls []float64
	for elapsed := time.Duration(0); repBudget(elapsed, budget, len(walls)) && len(walls) < maxReps; {
		start := time.Now()
		r, err := systems.Run(method, env.g, buf, cfg)
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		elapsed += wall
		walls = append(walls, wall.Seconds())
		res.attempt(len(buf))
		if bad := mismatches(want, func(i int) []queries.Value { return r.Values[i] }); bad > 0 {
			res.fail(bad, fmt.Sprintf("%d queries under %s (workers=%d) differ from the verified rep", bad, method, workers))
		}
	}
	return median(walls), nil
}

// addStats sums two intervals of one pool's counters.
func addStats(a, b par.Stats) par.Stats {
	a.Workers = b.Workers
	a.Jobs += b.Jobs
	a.InlineRuns += b.InlineRuns
	a.Chunks += b.Chunks
	a.Steals += b.Steals
	a.Parks += b.Parks
	if a.ChunksPerWorker == nil {
		a.ChunksPerWorker = make([]int64, len(b.ChunksPerWorker))
	}
	for i, n := range b.ChunksPerWorker {
		a.ChunksPerWorker[i] += n
	}
	return a
}

// tracedConfigs is how many configurations share the traced pass's budget:
// the untraced baseline, the traced Glign loop, Ligra-C, Glign-Intra and
// Glign at one worker.
const tracedConfigs = 5

// runOfflineTraced is the traced pass of an offline workload.
func runOfflineTraced(w workloadSpec, cfg config, tr *tracer) (*passResult, error) {
	res := newPassResult(w.Name, perLayer)
	m := res.m
	root := tr.begin("workload", -1, -1, -1)
	defer tr.end(root)

	sp := tr.begin("setup", root, -1, -1)
	env, err := setupOffline(w, tr, sp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer env.pool.Close()
	buf, err := materializeBuffer(w, env.g, env.rt.Profile(), cfg.seed, 0, cfg.out)
	if err != nil {
		return nil, err
	}
	n := env.g.NumVertices()
	m.set("graph.vertices", float64(n))
	m.set("graph.edges", float64(env.g.NumEdges()))
	m.set("graph.footprint_mb", float64(env.g.MemoryFootprintBytes())/mb)

	warm, err := env.rt.Run(buf)
	if err != nil {
		return nil, err
	}
	res.attempt(len(buf))
	sp = tr.begin("oracle.verify", root, -1, -1)
	verr := warm.Verify(oracleSample)
	m.set("oracle.verify_s", tr.end(sp).Seconds())
	m.set("oracle.queries_checked", oracleSample)
	if verr != nil {
		res.fail(1, verr.Error())
		m.set("oracle.mismatches", 1)
	}
	want := fingerprints(len(buf), warm.Values)
	warm = nil

	share := cfg.budget() / tracedConfigs
	maxReps := cfg.maxReps()

	// Untraced reps through the facade alternate with traced reps of the
	// call-by-call loop, so drift in the machine's speed lands on both sides
	// of the tracing overhead. The pool's counters are read around the
	// traced reps only.
	col := telemetry.NewCollector()
	var pool par.Stats
	var sum tracedCounts
	var baseWalls, walls []float64
	for elapsed := time.Duration(0); repBudget(elapsed, 2*share, sum.reps) && sum.reps < maxReps; {
		start := time.Now()
		if _, err := env.rt.Run(buf); err != nil {
			return nil, err
		}
		base := time.Since(start)
		baseWalls = append(baseWalls, base.Seconds())
		res.attempt(len(buf))

		pool0 := env.pool.Stats()
		start = time.Now()
		values, err := tracedGlignRep(env, w, buf, col, tr, root, &sum)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		pool = addStats(pool, env.pool.Stats().Sub(pool0))
		elapsed += base + wall
		walls = append(walls, wall.Seconds())
		res.attempt(len(buf))
		if bad := mismatches(want, func(i int) []queries.Value { return values[i] }); bad > 0 {
			res.fail(bad, fmt.Sprintf("%d queries of the traced rep differ from the verified rep", bad))
		}
	}
	nr := float64(sum.reps)

	// Per-rep means of the traced reps' spans and counters.
	dur, self := sumByName(tr.spansOf(w.Name))
	perRep := func(ns int64) float64 { return float64(ns) / nr }
	batches := sum.batches
	m.set("graph.generate_s", float64(dur["graph.generate"])/1e9)
	m.set("align.profile_s", float64(dur["align.profile"])/1e9)
	m.set("align.vector_us_per_batch", ratio(float64(dur["align.vector"])/1e3, float64(sum.monoBatches)))
	m.set("align.delay_iters_mean", ratio(float64(sum.delaySum), float64(sum.delayed)))
	m.set("align.delay_iters_max", float64(sum.delayMax))
	m.set("sched.make_batches_us", perRep(dur["sched.make_batches"])/1e3)
	m.set("sched.split_paradigm_us", perRep(dur["sched.split_paradigm"])/1e3)
	m.set("sched.batches", float64(len(batches)))
	m.set("sched.max_displacement", float64(sched.MaxDisplacement(batches)))
	coreRun := perRep(dur["core.run"]) / 1e9
	iters := float64(sum.monoIters) / nr
	m.set("core.run_s", coreRun)
	m.set("core.iterations", iters)
	m.set("core.iter_us", ratio(coreRun*1e6, iters))
	m.set("core.edges_processed", float64(sum.edges)/nr)
	m.set("core.lane_relaxations", float64(sum.relaxations)/nr)
	m.set("core.value_writes", float64(sum.writes)/nr)
	m.set("core.write_share", ratio(float64(sum.writes), float64(sum.relaxations)))
	m.set("core.edges_per_query", float64(sum.edges)/nr/float64(len(buf)))
	m.set("core.medges_per_s", ratio(float64(sum.edges)/nr/1e6, coreRun+perRep(dur["core.conv_run"])/1e9))
	m.set("core.alloc_mb_per_batch", ratio(float64(sum.allocBytes)/mb, float64(sum.monoBatches)))
	m.set("core.mallocs_per_iter", ratio(float64(sum.mallocs), float64(sum.monoIters)))
	m.set("core.extract_us_per_query", perRep(dur["core.extract"])/1e3/float64(len(buf)))
	m.set("core.conv_run_s", perRep(dur["core.conv_run"])/1e9)
	m.set("core.conv_rounds", float64(sum.convRounds)/nr)
	m.set("systems.run_s", perRep(dur["systems.run"])/1e9)
	m.set("systems.glue_share", ratio(float64(self["systems.run"]), float64(dur["systems.run"])))

	var frontierSum, frontierIters float64
	for _, r := range col.Snapshot().Runs {
		for _, b := range r.Batches {
			for _, it := range b.Iterations {
				if it.Mode != telemetry.ModeJacobi {
					frontierSum += float64(it.FrontierSize)
					frontierIters++
				}
			}
		}
	}
	meanFrontier := ratio(frontierSum, frontierIters)
	m.set("frontier.mean_size_share", meanFrontier/float64(n))

	m.set("par.jobs", float64(pool.Jobs)/nr)
	m.set("par.chunks", float64(pool.Chunks)/nr)
	m.set("par.steals", float64(pool.Steals)/nr)
	m.set("par.parks", float64(pool.Parks)/nr)
	m.set("par.inline_runs", float64(pool.InlineRuns)/nr)
	m.set("par.imbalance_ratio", pool.ImbalanceRatio())
	m.set("par.jobs_per_iter", ratio(float64(pool.Jobs), float64(sum.monoIters+sum.convRounds)))

	// Comparison configurations: same buffer, same pool, systems.Run.
	glign := median(baseWalls)
	m.set("telemetry.traced_overhead_share", median(walls)/glign-1)
	for _, c := range []struct {
		metric, method string
		workers        int
	}{
		{"systems.speedup_vs_ligrac", systems.LigraC, benchWorkers},
		{"systems.speedup_vs_intra", systems.GlignIntra, benchWorkers},
		{"par.speedup_w2", systems.Glign, 1},
	} {
		wall, err := timedSystemsRuns(env, w, buf, c.method, c.workers, share, maxReps, want, res)
		if err != nil {
			return nil, err
		}
		m.set(c.metric, wall/glign)
		res.note(fmt.Sprintf("%s = %.4f s / %.4f s (base: Glign at %d workers through Runtime.Run)", c.metric, wall, glign, benchWorkers))
	}

	microbenchFrontier(m, env.pool, n, int(meanFrontier))
	m.set("par.for_dispatch_us", forDispatchMicros(env.pool))
	m.set("bench.rep_cv", cv(baseWalls))
	m.set("failed_share", ratio(float64(res.failed), float64(res.attempted)))
	return res, nil
}

// microRounds is how many calls each layer micro-measurement averages.
const microRounds = 200

// microbenchFrontier times the frontier package's public calls at the
// workload's universe size: an empty frontier, the materialisation of a
// frontier of the workload's mean size, and the word-level union of two.
func microbenchFrontier(m *metricSet, pool *par.Pool, n, members int) {
	members = max(members, 1)
	start := time.Now()
	for i := 0; i < microRounds; i++ {
		sink = frontier.New(n)
	}
	m.set("frontier.new_ns", float64(time.Since(start).Nanoseconds())/microRounds)

	// Evenly spread members, as a traversal wave across a sorted ID space.
	vs := make([]graph.VertexID, members)
	for i := range vs {
		vs[i] = graph.VertexID(i * n / members)
	}
	var sparse time.Duration
	for i := 0; i < microRounds; i++ {
		s := frontier.FromVertices(n, vs...)
		start = time.Now()
		s.Sparse()
		sparse += time.Since(start)
	}
	m.set("frontier.sparse_ns_per_member", float64(sparse.Nanoseconds())/microRounds/float64(members))

	a, b := frontier.FromVertices(n, vs...), frontier.New(n)
	start = time.Now()
	for i := 0; i < microRounds; i++ {
		sink = frontier.UnionOf(pool, benchWorkers, a, b)
	}
	m.set("frontier.union_ns_per_word", float64(time.Since(start).Nanoseconds())/microRounds/float64(len(a.Words())))
}

// sink keeps the micro-measurements' results alive so the compiler cannot
// drop the calls.
var sink *frontier.Subset

// dispatchTotal is the smallest loop par dispatches instead of running
// inline: one minimum-grain (64) chunk per worker.
const dispatchTotal = 64 * benchWorkers

// forDispatchMicros times an empty parallel loop: the fixed cost of waking
// the pool's workers and joining them, paid once per pool.For.
func forDispatchMicros(pool *par.Pool) float64 {
	start := time.Now()
	for i := 0; i < microRounds; i++ {
		pool.For(dispatchTotal, benchWorkers, dispatchTotal/benchWorkers, func(lo, hi int) {})
	}
	return float64(time.Since(start).Microseconds()) / microRounds
}
