package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// RunConvergenceBatch is the lane-fused Jacobi evaluator behind the batch
// engines: one synchronized round recomputes every vertex for every
// still-running lane from the previous round's in-neighbor values, in the
// same vertex-major rows as the monotone engines (a lane's gather reads its
// cell of each in-neighbor's row, and the next lane finds those rows
// cached). The batch must be
// paradigm-homogeneous — every kernel a queries.ConvergenceKernel; the
// batching layers split mixed buffers before routing.
//
// A lane freezes once its max per-vertex residual reaches the kernel's
// Epsilon (or its MaxRounds cap, or Options.MaxIterations): frozen lanes
// carry their values forward while the rest of the batch keeps iterating,
// the convergence analogue of a lane's frontier draining.
//
// Options.Alignment is ignored: delayed start schedules frontier arrivals,
// and a Jacobi round has no frontier. Options.Tracer is likewise ignored
// (access tracing models the monotone push design). Per-vertex in-neighbor
// folds run in reverse-CSR order, so the values are bit-identical to
// RunConvergenceSequential's for every worker count.
func RunConvergenceBatch(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	b := len(batch)
	if b == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	n := g.NumVertices()
	kers := make([]queries.ConvergenceKernel, b)
	eps := make([]float64, b)
	caps := make([]int, b)
	for i, q := range batch {
		ck, ok := queries.ConvergentOf(q.Kernel)
		if !ok {
			return nil, fmt.Errorf("core: mixed-paradigm batch: query %d (%s) is monotone; split batches by paradigm before routing", i, q)
		}
		if int(q.Source) >= n {
			return nil, fmt.Errorf("core: query %d source v%d out of range (n=%d)", i, q.Source, n)
		}
		kers[i] = ck
		eps[i] = ck.Epsilon()
		caps[i] = ck.MaxRounds()
		if opt.MaxIterations > 0 && opt.MaxIterations < caps[i] {
			caps[i] = opt.MaxIterations
		}
	}
	geo := opt.Arena.geometry(g)
	pool := par.OrDefault(opt.Pool)
	workers := opt.Workers

	// The slabs hold an earlier batch's rounds or zeros; the initial-value
	// fill writes every cell of old, and every round every cell of next.
	slabs := opt.Arena.takeSlabs(n * b)
	old, next := slabs.old, slabs.next
	pool.For(n, workers, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for i := 0; i < b; i++ {
				old[Cell(v, b, i)] = kers[i].InitialValue(n, graph.VertexID(v), batch[i].Source)
			}
		}
	})

	res := &BatchResult{
		B: b, N: n, arena: opt.Arena,
		LaneRounds:    make([]int, b),
		LaneConverged: make([]bool, b),
		LaneResiduals: make([]float64, b),
	}
	sizes := make([]int, 0, iterCapHint(opt.MaxIterations))
	done := make([]bool, b)
	roundResid := make([]float64, b)
	var mu sync.Mutex
	scratches := engine.NewJacobiScratches(geo.MaxInDeg, b)
	for round, running := 0, b; running > 0; round++ {
		for i := range roundResid {
			roundResid[i] = 0
		}
		sizes = append(sizes, n)
		prev := countersOf(res)
		pool.For(n, workers, 0, func(lo, hi int) {
			scratch := scratches.Get()
			defer scratches.Put(scratch)
			var edges, relaxes, writes int64
			for v := lo; v < hi; v++ {
				us, _ := geo.Rev.OutEdges(graph.VertexID(v))
				for j, u := range us {
					scratch.Degs[j] = geo.OutDeg[u]
				}
				edges += int64(len(us))
				for i := 0; i < b; i++ {
					cell := Cell(v, b, i)
					if done[i] {
						next[cell] = old[cell]
						continue
					}
					for j, u := range us {
						scratch.Nbrs[j] = old[Cell(int(u), b, i)]
					}
					nv := kers[i].Step(n, old[cell], scratch.Nbrs[:len(us)], scratch.Degs[:len(us)])
					next[cell] = nv
					if r := kers[i].Residual(old[cell], nv); r > scratch.Resid[i] {
						scratch.Resid[i] = r
					}
					if nv != old[cell] {
						writes++
					}
					relaxes += int64(len(us))
				}
			}
			atomic.AddInt64(&res.EdgesProcessed, edges)
			atomic.AddInt64(&res.LaneRelaxations, relaxes)
			atomic.AddInt64(&res.ValueWrites, writes)
			mu.Lock()
			for i := 0; i < b; i++ {
				if scratch.Resid[i] > roundResid[i] {
					roundResid[i] = scratch.Resid[i]
				}
			}
			mu.Unlock()
		})
		old, next = next, old
		res.GlobalIterations++
		active := running
		for i := 0; i < b; i++ {
			if done[i] {
				continue
			}
			res.LaneRounds[i]++
			res.LaneResiduals[i] = roundResid[i]
			if roundResid[i] <= eps[i] {
				done[i] = true
				res.LaneConverged[i] = true
				running--
			} else if res.LaneRounds[i] >= caps[i] {
				done[i] = true
				running--
			}
		}
		if opt.Telemetry != nil {
			cur := countersOf(res)
			injected := 0
			if round == 0 {
				injected = b
			}
			opt.Telemetry.RecordIteration(telemetry.IterationStat{
				Iter:            round,
				Query:           -1,
				FrontierSize:    n,
				Mode:            telemetry.ModeJacobi,
				ActiveQueries:   active,
				InjectedQueries: injected,
				EdgesProcessed:  cur.Edges - prev.Edges,
				LaneRelaxations: cur.Relaxes - prev.Relaxes,
				ValueWrites:     cur.Writes - prev.Writes,
			})
		}
	}
	res.UnionFrontierSizes = sizes
	vals := opt.Arena.takeValues(n * b)
	pool.For(n*b, workers, 0, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			vals.Set(c, old[c])
		}
	})
	res.Values = vals
	opt.Arena.releaseSlabs(slabs)
	return res, nil
}

// RunConvergenceSequential evaluates each convergence query of a batch
// independently through engine.RunConvergence — the Ligra-S-style routing
// with no cross-query sharing beyond the amortized graph reversal. Exported
// so the query-parallel baseline shares the exact semantics.
func RunConvergenceSequential(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	b := len(batch)
	if b == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	n := g.NumVertices()
	rev := opt.Arena.geometry(g).Rev
	res := &BatchResult{
		B: b, N: n, Values: queries.NewValues(n*b, 0),
		LaneRounds:    make([]int, b),
		LaneConverged: make([]bool, b),
		LaneResiduals: make([]float64, b),
	}
	for i, q := range batch {
		ck, ok := queries.ConvergentOf(q.Kernel)
		if !ok {
			return nil, fmt.Errorf("core: mixed-paradigm batch: query %d (%s) is monotone; split batches by paradigm before routing", i, q)
		}
		r, err := engine.RunConvergence(g, q, engine.Options{
			Workers:       opt.Workers,
			Pool:          opt.Pool,
			MaxIterations: opt.MaxIterations,
			ReverseGraph:  rev,
			Telemetry:     opt.Telemetry,
			TelemetryLane: i,
		})
		if err != nil {
			return nil, err
		}
		res.Absorb(i, r)
		res.LaneRounds[i] = r.Iterations
		res.LaneResiduals[i] = r.Residual
		res.LaneConverged[i] = r.Residual <= ck.Epsilon()
	}
	return res, nil
}
