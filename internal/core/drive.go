package core

import (
	"sync/atomic"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// Counts is the work one chunk of an iteration did: edge visits, per-query
// relaxation attempts, and relaxations that installed a better value.
type Counts struct {
	Edges, Relaxes, Writes int64
}

// Step is one global iteration as a policy hands it to Drive: the size of
// the frontier entering it and the parallel loop — Body over [0, Total) in
// chunks of Grain (0 = adaptive) — that relaxes it. Body runs concurrently on
// disjoint ranges and returns each range's work.
type Step struct {
	Size, Total, Grain int
	Body               func(lo, hi int) Counts
}

// LanePolicy is the per-query activation state a synchronized frontier
// engine keeps — the only thing that distinguishes Glign-Intra (none),
// Ligra-C (B separate frontiers), Krill (a per-vertex query mask) and GraphM
// (B separate frontiers walked partition by partition); see paper Figure 5.
// Drive calls every method once per iteration at most, never per edge. In a
// cache-traced run a policy is replaced by the model of its design (traced,
// in tracing.go); a policy from outside this package is modelled as a
// job-per-query design and must provide VisitOrder for that.
type LanePolicy interface {
	// Inject activates src for lane; Drive has already stored the lane's
	// source value.
	Inject(src graph.VertexID, lane int)
	// Step describes the iteration over the current frontier.
	Step() Step
	// Advance makes the frontier Step's Body built the current one.
	Advance()
}

// runBatch is the Run of the core frontier engines: convergence kernels have
// no frontier to drive and take the shared lane-fused Jacobi evaluator (the
// batching layers split mixed buffers by paradigm); everything else is
// Drive on the engine's policy. query is the telemetry records' Query (see
// drive).
func runBatch(g *graph.Graph, batch []queries.Query, opt Options, query int, policy func(st *BatchSetup) LanePolicy) (*BatchResult, error) {
	if queries.AnyConvergent(batch) {
		return runJacobi(g, batch, opt, query)
	}
	return drive(g, batch, opt, policy, query)
}

// Drive is the one synchronized traversal loop behind every frontier engine:
// delayed-start injection, termination, iteration bookkeeping, the parallel
// dispatch with its counter merge, and the telemetry record. What is relaxed
// and how the next frontier is built is up to the policy made for the
// prepared batch.
func Drive(g *graph.Graph, batch []queries.Query, opt Options, policy func(st *BatchSetup) LanePolicy) (*BatchResult, error) {
	return drive(g, batch, opt, policy, -1)
}

// drive is Drive with the telemetry records' Query: -1 for a batch, the lane
// for the one-query batches of RunApart.
func drive(g *graph.Graph, batch []queries.Query, opt Options, policy func(st *BatchSetup) LanePolicy, query int) (*BatchResult, error) {
	st, err := PrepareBatch(g, batch, opt)
	if err != nil {
		return nil, err
	}
	res := st.NewResult()
	res.UnionFrontierSizes = make([]int, 0, iterCapHint(opt.MaxIterations))
	pool := par.OrDefault(opt.Pool)
	p, workers := traced(g, st, opt, policy(st))
	// One closure for the whole run: each iteration only swaps the body in.
	var body func(lo, hi int) Counts
	chunk := func(lo, hi int) {
		c := body(lo, hi)
		atomic.AddInt64(&res.EdgesProcessed, c.Edges)
		atomic.AddInt64(&res.LaneRelaxations, c.Relaxes)
		atomic.AddInt64(&res.ValueWrites, c.Writes)
	}
	started := 0 // cursor into st.schedule: lanes injected so far
	for iter := 0; ; iter++ {
		first := started
		for ; started < st.B && st.Alignment[st.schedule[started]] == iter; started++ {
			lane := st.schedule[started]
			src := st.Sources[lane]
			st.Vals.Set(st.Cell(int(src), lane), st.Kernels[lane].SourceValue())
			p.Inject(src, lane)
		}
		injected := started - first
		step := p.Step()
		if (step.Size == 0 && started == st.B) || (opt.MaxIterations > 0 && iter >= opt.MaxIterations) {
			break
		}
		res.UnionFrontierSizes = append(res.UnionFrontierSizes, step.Size)
		res.GlobalIterations++
		prev := countersOf(res)
		body = step.Body
		pool.For(step.Total, workers, step.Grain, chunk)
		p.Advance()
		if opt.Telemetry != nil {
			cur := countersOf(res)
			opt.Telemetry.RecordIteration(telemetry.IterationStat{
				Iter:            iter,
				Query:           query,
				FrontierSize:    step.Size,
				Mode:            telemetry.ModePush,
				ActiveQueries:   started,
				InjectedQueries: injected,
				EdgesProcessed:  cur.Edges - prev.Edges,
				LaneRelaxations: cur.Relaxes - prev.Relaxes,
				ValueWrites:     cur.Writes - prev.Writes,
			})
		}
	}
	return res, nil
}

// iterCapHint sizes per-iteration record slices (UnionFrontierSizes and
// friends) up front, so the traversal loop never grows them mid-run
// (glignlint/hotalloc): capped runs bound their history by the cap, and
// free-running monotone batches converge in O(diameter) rounds, for which 64
// is a generous amortization base.
func iterCapHint(maxIterations int) int { return max(maxIterations, 64) }

// countersOf snapshots the cumulative BatchResult counters so per-iteration
// deltas can be reported to telemetry. It runs between parallel phases (the
// workers' adds already happened-before via par.For's join), but atomic loads
// keep the access protocol uniform — the invariant glignlint/atomicmix
// enforces.
func countersOf(res *BatchResult) Counts {
	return Counts{
		atomic.LoadInt64(&res.EdgesProcessed),
		atomic.LoadInt64(&res.LaneRelaxations),
		atomic.LoadInt64(&res.ValueWrites),
	}
}

// WeightAt is the weight of the j-th edge of an adjacency whose weight slice
// is ws (nil on unweighted graphs, where every edge weighs 1).
func WeightAt(ws []graph.Weight, j int) graph.Weight {
	if ws != nil {
		return ws[j]
	}
	return 1
}
