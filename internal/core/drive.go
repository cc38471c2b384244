package core

import (
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
// disjoint ranges and returns each range's work; slot is the pool slot running
// the range (par.Pool.ForSlots), below the pool's Slots(Options.Workers), so a
// policy can keep a participant's state in a slice indexed by it, lock-free.
type Step struct {
	Size, Total, Grain int
	Body               func(slot, lo, hi int) Counts
}

// LanePolicy is the per-query activation state a synchronized frontier
// engine keeps — the only thing that distinguishes Glign-Intra (none),
// Ligra-C (B separate frontiers), Krill (a per-vertex query mask) and GraphM
// (B separate frontiers walked partition by partition); see paper Figure 5.
// Drive calls every method once per iteration at most, never per edge. In a
// cache-traced run Drive runs the model of the policy's design wrapped around
// the policy (traced, in tracing.go), which calls these methods and walks the
// policy's own state; a policy from outside this package is modelled as a
// job-per-query design, and for that must embed LaneFrontiers and provide
// VisitOrder.
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
	// Its chunks add their work to their slot's Counts, which each iteration
	// sums once they have joined.
	var body func(slot, lo, hi int) Counts
	work := make([]Counts, st.slots)
	chunk := func(slot, lo, hi int) { work[slot].add(body(slot, lo, hi)) }
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
		body = step.Body
		pool.ForSlots(step.Total, workers, step.Grain, chunk)
		p.Advance()
		var c Counts
		for i := range work {
			c.add(work[i])
			work[i] = Counts{}
		}
		res.count(c)
		if opt.Telemetry != nil {
			opt.Telemetry.RecordIteration(telemetry.IterationStat{
				Iter:            iter,
				Query:           query,
				FrontierSize:    step.Size,
				Mode:            telemetry.ModePush,
				ActiveQueries:   started,
				InjectedQueries: injected,
				EdgesProcessed:  c.Edges,
				LaneRelaxations: c.Relaxes,
				ValueWrites:     c.Writes,
			})
		}
	}
	return res, nil
}

// iterCapHint sizes per-iteration record slices (UnionFrontierSizes and
// friends) up front, so the traversal loop rarely grows them mid-run (the
// root package's TestWarmedRunMallocsPerIteration counts what it does):
// capped runs bound their history by the cap, and free-running monotone
// batches converge in O(diameter) rounds, for which 64 is a generous
// amortization base.
func iterCapHint(maxIterations int) int { return max(maxIterations, 64) }

// add adds o to c.
func (c *Counts) add(o Counts) {
	c.Edges += o.Edges
	c.Relaxes += o.Relaxes
	c.Writes += o.Writes
}

// count adds c to the result's work counters.
func (r *BatchResult) count(c Counts) {
	r.EdgesProcessed += c.Edges
	r.LaneRelaxations += c.Relaxes
	r.ValueWrites += c.Writes
}

// WeightAt is the weight of the j-th edge of an adjacency whose weight slice
// is ws (nil on unweighted graphs, where every edge weighs 1).
func WeightAt(ws []graph.Weight, j int) graph.Weight {
	if ws != nil {
		return ws[j]
	}
	return 1
}
