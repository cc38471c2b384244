package systems

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/baselines"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/sched"
	"github.com/glign/glign/internal/telemetry"
)

// Method names.
const (
	LigraS        = "Ligra-S"
	LigraC        = "Ligra-C"
	GraphM        = "GraphM"
	Krill         = "Krill"
	GlignIntra    = "Glign-Intra"
	GlignInter    = "Glign-Inter"
	GlignBatch    = "Glign-Batch"
	Glign         = "Glign"
	IBFS          = "iBFS"
	QueryParallel = "Query-Parallel"
	Congra        = "Congra"
)

// AllMethods lists every method in the paper's presentation order.
func AllMethods() []string {
	return []string{LigraS, LigraC, GraphM, Krill, GlignIntra, GlignInter, GlignBatch, Glign}
}

// Config parameterizes a method run.
type Config struct {
	// BatchSize is |B|, the number of queries evaluated concurrently
	// (paper default: 64).
	BatchSize int
	// Workers bounds parallelism (<= 0: GOMAXPROCS).
	Workers int
	// Pool is the work-stealing scheduler every parallel loop of the run
	// submits to; nil means the shared par.Default pool. Injecting a
	// dedicated pool isolates the run's scheduling and makes the scheduler
	// telemetry section (steals, imbalance) attributable to this run alone.
	Pool *par.Pool
	// Arena, when non-nil, carries the batch value array, the Jacobi state
	// and the changed-lane mask from one batch to the next — within this run
	// and, for an owner that keeps it (glign.Runtime), across runs. Nil
	// allocates them per batch. Run's result vectors never alias it.
	Arena *core.Arena
	// Window is the affinity-batching window B_w (<= 0: whole buffer).
	Window int
	// Profile supplies closestHV; required by Glign-Inter, Glign-Batch and
	// Glign, ignored otherwise. Run builds it on demand when nil.
	Profile *align.Profile
	// Tracer, when set, receives the memory accesses of every batch (one
	// shared simulated cache across the whole buffer run).
	Tracer memtrace.Tracer
	// KeepValues retains per-query result vectors for verification
	// (memory-heavy: n*|buffer| float64s).
	KeepValues bool
	// Telemetry, when non-nil, collects per-iteration engine records and
	// scheduler decisions for this run (see internal/telemetry). Nil
	// disables collection at near-zero cost.
	Telemetry *telemetry.Collector
}

// Result aggregates a method run over a whole buffer.
type Result struct {
	Method   string
	Duration time.Duration
	// Batches[i] lists buffer indices of batch i, in evaluation order.
	Batches [][]int
	// BatchDurations[i] is the evaluation time of batch i. A query's
	// latency under FCFS arrival is the prefix sum up to and including its
	// batch — the latency accounting the paper leaves as future work
	// (§4.1).
	BatchDurations []time.Duration
	// Alignments[i] is the alignment vector used for batch i (nil = zeros).
	Alignments [][]int
	// TotalIterations sums global iterations over batches.
	TotalIterations int
	// EdgesProcessed / LaneRelaxations / ValueWrites aggregate engine
	// counters.
	EdgesProcessed  int64
	LaneRelaxations int64
	ValueWrites     int64
	// Values[bufferIdx] is the query's full result vector when
	// Config.KeepValues is set.
	Values map[int][]queries.Value
	// Telemetry is the run's trace when Config.Telemetry was set (snapshot
	// it for the per-iteration timelines), nil otherwise.
	Telemetry *telemetry.RunTrace
}

// Plan is the (policy, engine, aligned) decomposition of a method. Run
// evaluates a buffer under it; the online serving loop (internal/serve), which
// forms batches from a live admission queue instead of a pre-materialized
// buffer, resolves the same plan, so each method's batching policy, engine and
// batch options are identical in both — the serve-vs-offline differential test
// pins exactly that equivalence.
type Plan struct {
	// Policy partitions a buffered window of queries into batches.
	Policy sched.Policy
	// Engine evaluates one batch.
	Engine core.Engine
	// Aligned selects delayed-start injection (alignment vectors from the
	// profile) for every batch.
	Aligned bool

	prof *align.Profile
}

// PlanFor resolves the method's plan. The profile is required by the
// affinity-batching and aligned methods (see NeedsProfile); run receives the
// policy's batching decisions when non-nil.
func PlanFor(method string, g *graph.Graph, prof *align.Profile, cfg Config, run *telemetry.RunTrace) (Plan, error) {
	fcfs := sched.FCFS{}
	affinity := sched.Affinity{Profile: prof, Window: cfg.Window, Telemetry: run, Workers: cfg.Workers, Pool: cfg.Pool}
	p, ok := map[string]Plan{
		LigraS:        {Policy: fcfs, Engine: core.LigraS},
		LigraC:        {Policy: fcfs, Engine: core.LigraC},
		GraphM:        {Policy: fcfs, Engine: baselines.GraphM{}},
		Krill:         {Policy: fcfs, Engine: core.Krill},
		GlignIntra:    {Policy: fcfs, Engine: core.GlignIntra},
		GlignInter:    {Policy: fcfs, Engine: core.GlignIntra, Aligned: true},
		GlignBatch:    {Policy: affinity, Engine: core.GlignIntra},
		Glign:         {Policy: affinity, Engine: core.GlignIntra, Aligned: true},
		IBFS:          {Policy: baselines.IBFS{Graph: g, Telemetry: run}, Engine: core.LigraC},
		QueryParallel: {Policy: fcfs, Engine: baselines.QueryParallel{}},
		Congra:        {Policy: fcfs, Engine: baselines.Congra{}},
	}[method]
	if !ok {
		return Plan{}, fmt.Errorf("systems: unknown method %q", method)
	}
	p.prof = prof
	return p, nil
}

// BatchOptions is the core.Options a batch of the plan's method runs with:
// base — the resources of whoever runs it (workers, pool, arena, tracer) —
// plus what the method decides per batch, which is the batch's alignment
// vector when the method is aligned. Delayed start schedules frontier
// arrivals; convergence batches have no frontier, so theirs stays nil.
func (p Plan) BatchOptions(base core.Options, batch []queries.Query) core.Options {
	if p.Aligned && !queries.AnyConvergent(batch) {
		base.Alignment = p.prof.AlignmentVector(batch)
	}
	return base
}

// NeedsProfile reports whether the method requires the alignment profile.
func NeedsProfile(method string) bool {
	switch method {
	case GlignInter, GlignBatch, Glign:
		return true
	}
	return false
}

// Run evaluates the whole buffer with the named method. The returned
// Duration covers batching and evaluation, not profile construction (the
// profile is a one-time per-graph cost, reported separately — paper
// Table 14).
func Run(method string, g *graph.Graph, buffer []queries.Query, cfg Config) (*Result, error) {
	if len(buffer) == 0 {
		return nil, fmt.Errorf("systems: empty buffer")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	prof := cfg.Profile
	if prof == nil && NeedsProfile(method) {
		prof = align.NewProfile(g, align.DefaultHubCount, cfg.Workers)
	}
	// The run trace must exist before PlanFor so the batching policies can
	// record their window decisions into it.
	run := cfg.Telemetry.StartRun(method, "")
	plan, err := PlanFor(method, g, prof, cfg, run)
	if err != nil {
		return nil, err
	}
	run.SetPolicy(plan.Policy.Name())
	res := &Result{Method: method, Telemetry: run}
	if cfg.KeepValues {
		res.Values = make(map[int][]queries.Value, len(buffer))
	}

	start := time.Now()
	// Paradigm splitting keeps every batch homogeneous: monotone frontier
	// kernels and iterate-to-convergence kernels take different evaluation
	// paths inside every engine, so a mixed buffer yields one batch per
	// paradigm run rather than a mixed batch no engine accepts.
	res.Batches = sched.SplitParadigm(buffer, plan.Policy.MakeBatches(buffer, cfg.BatchSize))
	for bi, idx := range res.Batches {
		batch := sched.Select(buffer, idx)
		opt := plan.BatchOptions(core.Options{Workers: cfg.Workers, Pool: cfg.Pool, Tracer: cfg.Tracer, Arena: cfg.Arena}, batch)
		res.Alignments = append(res.Alignments, opt.Alignment)
		bt := run.StartBatch(plan.Engine.Name(), idx, opt.Alignment)
		opt.Telemetry = bt
		batchStart := time.Now()
		br, err := plan.Engine.Run(g, batch, opt)
		if err != nil {
			return nil, fmt.Errorf("systems: %s batch %d: %w", method, bi, err)
		}
		batchDur := time.Since(batchStart)
		bt.Finish(batchDur)
		res.BatchDurations = append(res.BatchDurations, batchDur)
		res.TotalIterations += br.GlobalIterations
		// The batch engines update these counters from par.For workers with
		// atomic adds; read them atomically to keep one access protocol per
		// field even though the batch has joined (glignlint/atomicmix).
		res.EdgesProcessed += atomic.LoadInt64(&br.EdgesProcessed)
		res.LaneRelaxations += atomic.LoadInt64(&br.LaneRelaxations)
		res.ValueWrites += atomic.LoadInt64(&br.ValueWrites)
		if cfg.KeepValues {
			for qi, vals := range br.AllQueryValues(cfg.Pool, cfg.Workers) {
				res.Values[idx[qi]] = vals
			}
		}
		// The extracted vectors are copies; the next batch may have the array.
		br.Release()
	}
	res.Duration = time.Since(start)
	run.Finish(res.Duration)
	// Snapshot the scheduler counters of the pool the run executed on, so the
	// exported metrics carry the steal/imbalance picture alongside the
	// per-iteration engine records.
	cfg.Telemetry.ObservePool(par.OrDefault(cfg.Pool))
	return res, nil
}

// QueryLatency returns the completion latency of the query at bufferIdx:
// the time from the start of the run until its batch finished. It returns
// false if the index was never scheduled.
func (r *Result) QueryLatency(bufferIdx int) (time.Duration, bool) {
	var acc time.Duration
	for bi, idx := range r.Batches {
		if bi >= len(r.BatchDurations) {
			break
		}
		acc += r.BatchDurations[bi]
		for _, qi := range idx {
			if qi == bufferIdx {
				return acc, true
			}
		}
	}
	return 0, false
}
