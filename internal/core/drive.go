package core

import (
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// counts is the work one chunk of an iteration did: edge visits, per-query
// relaxation attempts, and relaxations that installed a better value.
type counts struct {
	Edges, Relaxes, Writes int64
}

// step is one global iteration as a policy hands it to drive: the size of
// the frontier entering it and the parallel loop — Body over [0, Total) in
// chunks of Grain (0 = adaptive) — that relaxes it. Body runs concurrently on
// disjoint ranges and returns each range's work; slot is the pool slot running
// the range (par.Pool.ForSlots), below the pool's Slots(Options.Workers), so a
// policy can keep a participant's state in a slice indexed by it, lock-free.
type step struct {
	Size, Total, Grain int
	Body               func(slot, lo, hi int) counts
}

// lanePolicy is the per-query activation state a synchronized frontier
// engine keeps — the only thing that distinguishes Glign-Intra (none),
// Ligra-C (B separate frontiers), Krill (a per-vertex query mask) and GraphM
// (B separate frontiers walked partition by partition); see paper Figure 5.
// drive calls every method once per iteration at most, never per edge. In a
// cache-traced run drive runs the model of the policy's design wrapped around
// the policy (traced, in tracing.go), which calls these methods and walks the
// policy's own state.
type lanePolicy interface {
	// Inject activates src for lane; drive has already stored the lane's
	// source value.
	Inject(src graph.VertexID, lane int)
	// Step describes the iteration over the current frontier.
	Step() step
	// Advance makes the frontier Step's Body built the current one.
	Advance()
}

// drive is the one synchronized traversal loop behind every frontier engine:
// delayed-start injection, termination, iteration bookkeeping, the parallel
// dispatch with its counter merge, and the telemetry record. What is relaxed
// and how the next frontier is built is up to the policy made for the
// prepared batch on the push state drive takes from the arena, which it
// hands back at the batch's fixed point (see pushState) and drops after a
// MaxIterations stop, whose frontiers and masks may still hold members. query
// is the telemetry records' Query: -1 for a batch, the lane for the one-query
// batches of runApart.
func drive(g *graph.Graph, batch []queries.Query, opt Options, policy func(st *batchSetup, ps *pushState) lanePolicy, query int) (*BatchResult, error) {
	st, err := prepareBatch(g, batch, opt)
	if err != nil {
		return nil, err
	}
	res := &BatchResult{B: st.B, N: st.N, Values: st.Vals, arena: opt.Arena}
	pool := par.OrDefault(opt.Pool)
	ps := opt.Arena.takePush(st.N, st.slots)
	p, workers := traced(g, st, opt, policy(st, ps))
	// One closure for the whole run: each iteration only swaps the body in.
	// Its chunks add their work to their slot's counts, which each iteration
	// sums once they have joined.
	var body func(slot, lo, hi int) counts
	work := make([]counts, st.slots)
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
		s := p.Step()
		if s.Size == 0 && started == st.B {
			opt.Arena.releasePush(ps)
			return res, nil
		}
		if opt.MaxIterations > 0 && iter >= opt.MaxIterations {
			return res, nil
		}
		res.GlobalIterations++
		body = s.Body
		pool.ForSlots(s.Total, workers, s.Grain, chunk)
		p.Advance()
		var c counts
		for i := range work {
			c.add(work[i])
			work[i] = counts{}
		}
		res.count(c)
		if opt.Telemetry != nil {
			opt.Telemetry.RecordIteration(telemetry.IterationStat{
				Iter:            iter,
				Query:           query,
				FrontierSize:    s.Size,
				Mode:            telemetry.ModePush,
				ActiveQueries:   started,
				InjectedQueries: injected,
				EdgesProcessed:  c.Edges,
				LaneRelaxations: c.Relaxes,
				ValueWrites:     c.Writes,
			})
		}
	}
}

// add adds o to c.
func (c *counts) add(o counts) {
	c.Edges += o.Edges
	c.Relaxes += o.Relaxes
	c.Writes += o.Writes
}

// count adds c to the result's work counters.
func (r *BatchResult) count(c counts) {
	r.EdgesProcessed += c.Edges
	r.LaneRelaxations += c.Relaxes
	r.ValueWrites += c.Writes
}

// weightAt is the weight of the j-th edge of an adjacency whose weight slice
// is ws (nil on unweighted graphs, where every edge weighs 1).
func weightAt(ws []graph.Weight, j int) graph.Weight {
	if ws != nil {
		return ws[j]
	}
	return 1
}
