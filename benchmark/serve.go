package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	glign "github.com/glign/glign"
	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// serveSliceLen is the length of the slices the measured window is cut into
// for the latency percentiles (600 samples each at 120 arrivals/s); the
// reported percentile is the median over slices, so one disturbed stretch
// of the window does not own the tail.
const serveSliceLen = 5 * time.Second

// lateGenerator is the generator lag beyond which a run is marked
// generator_late: the latencies beside it were skewed by a starved sender.
const lateGenerator = 5 * time.Millisecond

// drainGrace is how long after the last arrival's deadline the generator
// still waits for tickets before counting them as never completed.
const drainGrace = 5 * time.Second

var errUncompleted = errors.New("benchmark: ticket never completed")

// serveEnv is what set-up builds for the serving workload.
type serveEnv struct {
	g    *graph.Graph
	pool *par.Pool
	srv  *glign.Server
}

func (e *serveEnv) close() {
	e.srv.Close()
	e.pool.Close()
}

// setupServe is one cold set-up: generate the graph, start the dedicated
// pool and the server (which builds the alignment profile its method needs).
// Everything but Workers, Pool and QueueCapacity is the zero ServeConfig.
func setupServe(w workloadSpec, col *telemetry.Collector, tr *tracer, parent int) (*serveEnv, error) {
	sp := tr.begin("graph.generate", parent, -1, -1)
	g, err := graph.Generate(w.Dataset, w.Size)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	pool := par.NewPool(benchWorkers)
	sp = tr.begin("serve.new", parent, -1, -1)
	srv, err := glign.Serve(g, glign.ServeConfig{Workers: benchWorkers, Pool: pool, QueueCapacity: serveQueueCap, Telemetry: col})
	tr.end(sp)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &serveEnv{g: g, pool: pool, srv: srv}, nil
}

// ticketRec is the generator's record of one scheduled request. Times are
// offsets from the session's start.
type ticketRec struct {
	due, sent, submitted, done time.Duration
	// hit: the ticket was already complete when Submit returned.
	hit           bool
	err           error
	epochAtSubmit int64
	resultEpoch   int64
	// values is kept only for the requests sampled for the oracle.
	values []queries.Value
}

// session is the outcome of replaying one schedule against one server.
type session struct {
	recs       []ticketRec
	queries    []queries.Query
	warmStats  *telemetry.ServingMetrics
	finalStats *telemetry.ServingMetrics
	allocBytes uint64
	wall       time.Duration
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runSession replays the schedule in an open loop on the real clock: one
// goroutine submits every request at its due time whatever the server's
// state, bumps the epoch on schedule, and parks one goroutine per pending
// ticket to stamp its completion. It closes the server before returning, so
// the final stats are quiescent.
func runSession(env *serveEnv, sc schedule, qs []queries.Query, tr *tracer, root int) *session {
	s := &session{recs: make([]ticketRec, len(sc.Arrivals)), queries: qs}
	measured := 0
	for _, a := range sc.Arrivals {
		if a.DueNs >= sc.WarmupNs {
			measured++
		}
	}
	keepEvery := max(measured/serveOracleCheck, 1)

	srv := env.srv
	ctx := context.Background()
	giveUp := make(chan struct{})
	var wg sync.WaitGroup
	var ms0, ms1 runtime.MemStats
	span := tr.begin("serve.session", root, -1, -1)
	start := time.Now()
	bump, seen := 0, 0
	for i, a := range sc.Arrivals {
		for bump < len(sc.BumpDueNs) && sc.BumpDueNs[bump] <= a.DueNs {
			sleepUntil(start.Add(time.Duration(sc.BumpDueNs[bump])))
			srv.BumpEpoch()
			bump++
		}
		keep := false
		if a.DueNs >= sc.WarmupNs {
			if s.warmStats == nil {
				runtime.ReadMemStats(&ms0)
				s.warmStats = srv.Stats()
			}
			keep = seen%keepEvery == 0
			seen++
		}
		r := &s.recs[i]
		r.due = time.Duration(a.DueNs)
		sleepUntil(start.Add(r.due))
		r.epochAtSubmit = srv.Epoch()
		sub := tr.begin("serve.submit", span, -1, -1)
		r.sent = time.Since(start)
		t, err := srv.SubmitWith(ctx, s.queries[i], glign.SubmitOptions{Timeout: serveTimeout})
		r.submitted = time.Since(start)
		tr.end(sub)
		if err != nil {
			r.err, r.done = err, r.submitted
			continue
		}
		select {
		case <-t.Done():
			r.hit, r.done = true, r.submitted
			r.resolve(t, keep)
			continue
		default:
		}
		tick := tr.begin("serve.ticket", span, -1, -1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-t.Done():
				r.done = time.Since(start)
				tr.end(tick)
				r.resolve(t, keep)
			case <-giveUp:
				r.done = time.Since(start)
				tr.end(tick)
				r.err = errUncompleted
			}
		}()
	}
	stop := time.AfterFunc(serveTimeout+drainGrace, func() { close(giveUp) })
	wg.Wait()
	stop.Stop()
	runtime.ReadMemStats(&ms1)
	s.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	env.close()
	s.wall = time.Since(start)
	tr.end(span)
	s.finalStats = srv.Stats()
	return s
}

// resolve copies a completed ticket's outcome into its record.
func (r *ticketRec) resolve(t *glign.QueryTicket, keep bool) {
	vals, err := t.Wait(context.Background())
	r.err = err
	r.resultEpoch = t.ResultEpoch()
	if keep {
		r.values = vals
	}
}

// serveOutcome is everything both passes derive from a session.
type serveOutcome struct {
	window     time.Duration
	measured   int
	latGroups  [][]float64 // per slice, completed requests only
	hitLat     []float64
	missLat    []float64
	submitUs   []float64
	lagMs      []float64
	lastDone   time.Duration
	checked    int
	mismatches int
}

// analyse classifies every measured request, counts failures into res, runs
// the correctness checks (oracle sample, epoch order, ledger) and collects
// the latency samples.
func analyse(s *session, sc schedule, g *graph.Graph, res *passResult) *serveOutcome {
	o := &serveOutcome{window: time.Duration(sc.WindowNs)}
	warm := time.Duration(sc.WarmupNs)
	slices := max(int(o.window/serveSliceLen), 1)
	o.latGroups = make([][]float64, slices)
	var full, shed, deadline, completedOK int64
	for i := range s.recs {
		r := &s.recs[i]
		switch {
		case r.err == nil:
			completedOK++
		case errors.Is(r.err, glign.ErrQueueFull):
			full++
		case errors.Is(r.err, glign.ErrQueryShed):
			shed++
		case errors.Is(r.err, glign.ErrQueryDeadline):
			deadline++
		}
		if r.due < warm {
			continue
		}
		o.measured++
		o.lastDone = max(o.lastDone, r.done)
		o.lagMs = append(o.lagMs, float64(r.sent-r.due)/float64(time.Millisecond))
		o.submitUs = append(o.submitUs, float64(r.submitted-r.sent)/float64(time.Microsecond))
		if r.err != nil {
			res.fail(1, "")
			continue
		}
		lat := openLoopLatencyMs(r.due, r.done)
		gi := min(int((r.due-warm)*time.Duration(slices)/o.window), slices-1)
		o.latGroups[gi] = append(o.latGroups[gi], lat)
		if r.hit {
			o.hitLat = append(o.hitLat, lat)
		} else {
			o.missLat = append(o.missLat, lat)
		}
		if r.resultEpoch < r.epochAtSubmit {
			res.fail(1, fmt.Sprintf("request %d: result epoch %d precedes epoch %d at submit", i, r.resultEpoch, r.epochAtSubmit))
		}
		if r.values != nil {
			o.checked++
			want := oracle.GoldenValues(g, s.queries[i])
			for v := range want {
				if r.values[v] != want[v] {
					o.mismatches++
					res.fail(1, fmt.Sprintf("request %d (%s) disagrees with the oracle at vertex %d", i, s.queries[i], v))
					break
				}
			}
			r.values = nil
		}
	}
	res.attempt(o.measured)
	if full+shed+deadline > 0 {
		res.note(fmt.Sprintf("refused or dropped over the whole session: queue_full=%d shed=%d deadline=%d", full, shed, deadline))
	}

	// SERVING.md §8 ledger on the quiescent final stats: every submission
	// is accounted once, nothing is left queued, every ticket handed out
	// resolved, and the server's totals agree with what the tickets said.
	st := s.finalStats
	handed := st.Admitted + st.DedupCoalesced + st.CacheHits
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"submitted = admitted+rejected+hits+coalesced", st.Submitted, st.Admitted + st.RejectedFull + st.RejectedClosed + st.CacheHits + st.DedupCoalesced},
		{"submitted = scheduled arrivals", st.Submitted, int64(len(s.recs))},
		{"queue_depth at rest", st.QueueDepth, 0},
		{"tickets handed out = completed+canceled+deadline+shed", handed, st.Completed + st.Canceled + st.DeadlineMisses + shed},
		{"completed = tickets resolved with values", st.Completed, completedOK},
		{"deadline_misses = tickets resolved ErrQueryDeadline", st.DeadlineMisses, deadline},
		{"rejected_full = submits refused ErrQueueFull", st.RejectedFull, full},
	} {
		if c.got != c.want {
			res.fail(1, fmt.Sprintf("ledger: %s: %d != %d", c.name, c.got, c.want))
		}
	}
	return o
}

// lagP99 reports how late the generator ran and marks a starved one.
func (o *serveOutcome) lagP99(res *passResult) float64 {
	lag := percentile(o.lagMs, 99)
	if lag > float64(lateGenerator)/float64(time.Millisecond) {
		res.note(fmt.Sprintf("generator_late: loadgen.lag_p99_ms = %.3f exceeds %v", lag, lateGenerator))
	}
	return lag
}

func (o *serveOutcome) samples() int {
	n := 0
	for _, g := range o.latGroups {
		n += len(g)
	}
	return n
}

func (o *serveOutcome) sliceMedians() []float64 {
	var out []float64
	for _, g := range o.latGroups {
		if len(g) > 0 {
			out = append(out, median(g))
		}
	}
	return out
}

// generatorInputs builds the generator's own graph profile (the server
// builds its own inside set-up), materializes the schedule and resolves its
// queries.
func generatorInputs(g *graph.Graph, cfg config, window time.Duration, stem string, tr *tracer, parent int) (schedule, []queries.Query, error) {
	sp := tr.begin("align.profile", parent, -1, -1)
	prof := align.NewProfile(g, align.DefaultHubCount, benchWorkers)
	tr.end(sp)
	sc, err := materializeSchedule(g, prof, cfg.seed, cfg.serveWarmup(), window, stem, cfg.out)
	if err != nil {
		return sc, nil, err
	}
	qs := make([]queries.Query, len(sc.Arrivals))
	for i, a := range sc.Arrivals {
		k, err := queries.ByName(a.Kernel)
		if err != nil {
			return sc, nil, err
		}
		qs[i] = queries.Query{Kernel: k, Source: graph.VertexID(a.Source)}
	}
	return sc, qs, nil
}

// runServe is the untraced pass of the serving workload.
func runServe(w workloadSpec, cfg config) (*passResult, error) {
	res := newPassResult(w.Name, endToEnd)
	var env *serveEnv
	setup, err := medianSetup(cfg.setups(), func(keep bool) error {
		e, err := setupServe(w, nil, nil, -1)
		if err != nil {
			return err
		}
		if keep {
			env = e
		} else {
			e.close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sc, qs, err := generatorInputs(env.g, cfg, cfg.serveWindow(), w.Name, nil, -1)
	if err != nil {
		env.close()
		return nil, err
	}
	s := runSession(env, sc, qs, nil, -1)
	o := analyse(s, sc, env.g, res)
	o.lagP99(res)
	res.samples = o.samples()
	res.repCV = cv(o.sliceMedians())
	res.m.set("setup_s", setup)
	// The window's requests completed, over the time it took to complete
	// them: a backlog that outlives the window lowers it.
	res.m.set("queries_per_s", float64(o.samples())/(o.lastDone-time.Duration(sc.WarmupNs)).Seconds())
	res.m.set("latency_p50_ms", groupedPercentile(o.latGroups, 50))
	res.m.set("latency_p90_ms", groupedPercentile(o.latGroups, tailPercentile))
	res.note(fmt.Sprintf("latency p99 (not gated): %.4f ms", groupedPercentile(o.latGroups, 99)))
	res.note(fmt.Sprintf("p50 by slice (ms): %.4g", slicePercentiles(o.latGroups, 50)))
	res.note(fmt.Sprintf("p%d by slice (ms): %.4g", tailPercentile, slicePercentiles(o.latGroups, tailPercentile)))
	res.m.set("alloc_mb_per_query", float64(s.allocBytes)/float64(o.measured)/mb)
	return res, nil
}

// runServeTraced is the traced pass of the serving workload: the budget is
// split between an untraced session (the baseline of the tracing overhead)
// and a traced one with the telemetry collector attached, both replaying
// the same schedule against a fresh server.
func runServeTraced(w workloadSpec, cfg config, tr *tracer) (*passResult, error) {
	res := newPassResult(w.Name, perLayer)
	m := res.m
	root := tr.begin("workload", -1, -1, -1)
	defer tr.end(root)
	window := cfg.serveWindow() / 2

	// Both servers are set up before either session, so the schedule is
	// drawn once, inside the traced set-up span; the traced server idles
	// while the baseline session runs.
	col := telemetry.NewCollector()
	sp := tr.begin("setup", root, -1, -1)
	env, err := setupServe(w, col, tr, sp)
	if err != nil {
		return nil, err
	}
	sc, qs, err := generatorInputs(env.g, cfg, window, w.Name+".traced", tr, sp)
	tr.end(sp)
	if err != nil {
		env.close()
		return nil, err
	}
	base, err := setupServe(w, nil, nil, -1)
	if err != nil {
		env.close()
		return nil, err
	}
	baseline := analyse(runSession(base, sc, qs, nil, -1), sc, base.g, res)

	s := runSession(env, sc, qs, tr, root)
	sp = tr.begin("oracle.verify", root, -1, -1)
	o := analyse(s, sc, env.g, res)
	verify := tr.end(sp)

	dur, _ := sumByName(tr.spansOf(w.Name))
	m.set("graph.generate_s", float64(dur["graph.generate"])/1e9)
	m.set("graph.vertices", float64(env.g.NumVertices()))
	m.set("graph.edges", float64(env.g.NumEdges()))
	m.set("graph.footprint_mb", float64(env.g.MemoryFootprintBytes())/mb)
	m.set("align.profile_s", float64(dur["align.profile"])/1e9)
	m.set("oracle.verify_s", verify.Seconds())
	m.set("oracle.queries_checked", float64(o.checked+baseline.checked))
	m.set("oracle.mismatches", float64(o.mismatches+baseline.mismatches))

	w0, w1 := s.warmStats, s.finalStats
	submitted := float64(w1.Submitted - w0.Submitted)
	flushes := float64(w1.WindowFlushes + w1.SizeFlushes + w1.DrainFlushes - w0.WindowFlushes - w0.SizeFlushes - w0.DrainFlushes)
	wait := subtractBuckets(w1.AdmissionWaitNs, w0.AdmissionWaitNs)
	m.set("serve.submit_us_p50", median(o.submitUs))
	m.set("serve.admission_wait_p50_ms", bucketPercentile(wait, 50)/1e6)
	m.set("serve.admission_wait_p99_ms", bucketPercentile(wait, 99)/1e6)
	m.set("serve.batches", float64(w1.Batches-w0.Batches))
	m.set("serve.window_flush_share", ratio(float64(w1.WindowFlushes-w0.WindowFlushes), flushes))
	m.set("serve.cache_hit_share", ratio(float64(w1.CacheHits-w0.CacheHits), submitted))
	m.set("serve.dedup_share", ratio(float64(w1.DedupCoalesced-w0.DedupCoalesced), submitted))
	m.set("serve.cache_invalidations", float64(w1.CacheInvalidations-w0.CacheInvalidations))
	m.set("serve.hit_latency_p50_ms", median(o.hitLat))
	m.set("serve.miss_latency_p50_ms", median(o.missLat))
	m.set("serve.latency_p99_ms", groupedPercentile(o.latGroups, 99))
	m.set("serve.shed", float64(w1.Shed-w0.Shed))
	m.set("serve.rejected_full", float64(w1.RejectedFull-w0.RejectedFull))
	m.set("serve.deadline_misses", float64(w1.DeadlineMisses-w0.DeadlineMisses))

	// The collector carries no timestamps, so occupancy and busy time are
	// over the whole session (warm-up included), against its whole wall.
	var lanes, batches, busy float64
	for _, r := range col.Snapshot().Runs {
		for _, b := range r.Batches {
			batches++
			lanes += float64(len(b.Queries))
			busy += b.DurationSeconds
		}
	}
	m.set("serve.batch_occupancy_mean", ratio(lanes, batches))
	m.set("serve.engine_busy_share", busy/s.wall.Seconds())

	tracedP50 := groupedPercentile(o.latGroups, 50)
	baseP50 := groupedPercentile(baseline.latGroups, 50)
	m.set("telemetry.traced_overhead_share", ratio(tracedP50, baseP50)-1)
	res.note(fmt.Sprintf("telemetry.traced_overhead_share = %.4f ms / %.4f ms - 1 (latency_p50_ms traced / untraced, %v window each)", tracedP50, baseP50, window))
	m.set("loadgen.lag_p99_ms", o.lagP99(res))
	m.set("loadgen.sent", float64(o.measured))
	m.set("bench.rep_cv", cv(o.sliceMedians()))
	m.set("failed_share", ratio(float64(res.failed), float64(res.attempted)))
	return res, nil
}

// subtractBuckets returns the histogram of the observations made between
// two snapshots of one power-of-two histogram.
func subtractBuckets(after, before []telemetry.HistBucket) []telemetry.HistBucket {
	prev := make(map[int64]int64, len(before))
	for _, b := range before {
		prev[b.Lo] = b.Count
	}
	var out []telemetry.HistBucket
	for _, b := range after {
		if b.Count -= prev[b.Lo]; b.Count > 0 {
			out = append(out, b)
		}
	}
	return out
}

// bucketPercentile reads the p-th percentile off a bucketed histogram,
// interpolating linearly inside the bucket that holds it. Power-of-two
// buckets make this coarse: read it to within a factor of two.
func bucketPercentile(buckets []telemetry.HistBucket, p float64) float64 {
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := p / 100 * float64(total)
	var seen float64
	for _, b := range buckets {
		if c := float64(b.Count); seen+c >= rank {
			return float64(b.Lo) + (rank-seen)/c*float64(b.Hi-b.Lo)
		} else {
			seen += c
		}
	}
	return float64(buckets[len(buckets)-1].Hi)
}
