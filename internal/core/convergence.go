package core

import (
	"math"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// jacobiGeometry is the graph-shape precomputation of a Jacobi evaluation:
// the edge-reversed view, whose adjacency lists a vertex's in-neighbors in
// ascending source order (the fold order of queries.ConvergenceKernel.Step),
// the out-degree of every vertex (PageRank divides by it), and the largest
// in-degree (sizes the Step path's gather scratch). An Arena keeps the one of
// its owner's graph.
type jacobiGeometry struct {
	g, rev   *graph.Graph
	outDeg   []int32
	maxInDeg int
}

// newJacobiGeometry derives the Jacobi geometry of g: its reversed view is g
// itself when undirected and g.Reverse() otherwise.
func newJacobiGeometry(g *graph.Graph) *jacobiGeometry {
	rev := g
	if g.Directed {
		rev = g.Reverse()
	}
	n := g.NumVertices()
	geo := &jacobiGeometry{g: g, rev: rev, outDeg: make([]int32, n)}
	for v := 0; v < n; v++ {
		geo.outDeg[v] = int32(g.OutDegree(graph.VertexID(v)))
		geo.maxInDeg = max(geo.maxInDeg, rev.OutDegree(graph.VertexID(v)))
	}
	return geo
}

// jacobi is one convergence batch as its rounds see it.
type jacobi struct {
	n, b    int
	geo     *jacobiGeometry
	kers    []queries.ConvergenceKernel
	done    []bool // frozen lanes
	running int    // lanes not frozen
	// old and next are the previous round's cells and this round's, swapped
	// between rounds: values, or a PageRank batch's shares (jacobiSlabs).
	old, next []queries.Value
	vals      []queries.Value  // a PageRank batch's values; nil otherwise
	scratch   []*jacobiScratch // a pool slot's, made on the slot's first chunk
}

// jacobiScratch is one pool slot's state in a round: a vertex's share sums
// (the PageRank round), the in-neighbor values and out-degrees Step takes, and
// what its chunks did — their work and a running max residual a lane — which
// the round takes once they have joined.
type jacobiScratch struct {
	row   []queries.Value
	nbrs  []queries.Value
	degs  []int32
	resid []float64
	work  counts
}

// newJacobiScratch makes a slot's scratch for b lanes and, when the batch
// runs Step, a gather of maxIn in-neighbors.
func newJacobiScratch(b, maxIn int) *jacobiScratch {
	return &jacobiScratch{
		row:   make([]queries.Value, b),
		nbrs:  make([]queries.Value, maxIn),
		degs:  make([]int32, maxIn),
		resid: make([]float64, b),
	}
}

// runJacobi is the one Jacobi evaluator, which every engine with a Jacobi
// path routes iterate-to-convergence kernels to (Ligra-S one query at a
// time): one synchronized round recomputes every vertex for every
// still-running lane from the previous round's in-neighbor values, in the
// same vertex-major rows as the monotone engines. The batch must be
// paradigm-homogeneous — every kernel a queries.ConvergenceKernel; the
// batching layers split mixed buffers before routing.
//
// A batch whose lanes all run PageRank takes the fused round, which reads each
// in-neighbor's share row once for all lanes — a vertex's share, value over
// out-degree, is divided once a round, when the value is written. Any other
// batch calls the kernels' Step and Residual lane by lane. Both paths fold
// in-neighbors in reverse-CSR order with the operations of Step, so the values
// are bit-identical across paths, batch widths and worker counts
// (queries.ConvergenceKernel).
//
// A lane freezes once its max per-vertex residual reaches the kernel's
// Epsilon (or its MaxRounds cap, or Options.MaxIterations): frozen lanes
// carry their values forward while the rest of the batch keeps iterating,
// the convergence analogue of a lane's frontier draining.
//
// Options.Alignment is ignored: delayed start schedules frontier arrivals,
// and a Jacobi round has no frontier. Options.Tracer is likewise ignored
// (access tracing models the monotone push design). query is the telemetry
// records' Query (see drive).
func runJacobi(g *graph.Graph, batch []queries.Query, opt Options, query int) (*BatchResult, error) {
	if err := checkBatch(g, batch, nil, true); err != nil {
		return nil, err
	}
	b := len(batch)
	n := g.NumVertices()
	j := &jacobi{n: n, b: b, kers: make([]queries.ConvergenceKernel, b), done: make([]bool, b), running: b}
	eps := make([]float64, b)
	caps := make([]int, b)
	fused := true // every lane PageRank: the fused round
	for i, q := range batch {
		ck, _ := queries.ConvergentOf(q.Kernel)
		fused = fused && queries.KindOf(q.Kernel) == queries.OpPageRank
		j.kers[i] = ck
		eps[i] = ck.Epsilon()
		caps[i] = ck.MaxRounds()
		if opt.MaxIterations > 0 && opt.MaxIterations < caps[i] {
			caps[i] = opt.MaxIterations
		}
	}
	j.geo = opt.Arena.geometry(g)
	round, gather := j.step, j.geo.maxInDeg
	if fused {
		round, gather = j.pagerank, 0
	}
	pool := par.OrDefault(opt.Pool)
	workers := opt.Workers
	j.scratch = make([]*jacobiScratch, pool.Slots(workers))

	// The slabs hold an earlier batch's rounds or zeros; the initial fill
	// writes every cell a round reads, and every round every cell it writes.
	slabs := opt.Arena.takeSlabs(n*b, fused)
	j.old, j.next = slabs.old, slabs.next
	if fused {
		j.vals = slabs.vals
	}
	pool.For(n, workers, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			row := Cell(v, b, 0)
			for i, k := range j.kers {
				x := k.InitialValue(n, graph.VertexID(v), batch[i].Source)
				if j.vals != nil {
					j.vals[row+i], x = x, x/queries.Value(j.geo.outDeg[v])
				}
				j.old[row+i] = x
			}
		}
	})

	res := &BatchResult{
		B: b, N: n, arena: opt.Arena,
		LaneRounds:    make([]int, b),
		LaneConverged: make([]bool, b),
		LaneResiduals: make([]float64, b),
	}
	roundResid := make([]float64, b)
	chunk := func(slot, lo, hi int) {
		s := j.scratch[slot]
		if s == nil {
			s = newJacobiScratch(b, gather)
			j.scratch[slot] = s
		}
		s.work.add(round(s, lo, hi))
	}
	for iter := 0; j.running > 0; iter++ {
		pool.ForSlots(n, workers, 0, chunk)
		clear(roundResid)
		var work counts
		for _, s := range j.scratch {
			if s == nil {
				continue
			}
			work.add(s.work)
			s.work = counts{}
			for i, r := range s.resid {
				roundResid[i] = queries.MaxResidual(roundResid[i], r)
				s.resid[i] = 0
			}
		}
		res.count(work)
		j.old, j.next = j.next, j.old
		res.GlobalIterations++
		active := j.running
		for i := 0; i < b; i++ {
			if j.done[i] {
				continue
			}
			res.LaneRounds[i]++
			res.LaneResiduals[i] = roundResid[i]
			if roundResid[i] <= eps[i] {
				j.done[i] = true
				res.LaneConverged[i] = true
				j.running--
			} else if res.LaneRounds[i] >= caps[i] {
				j.done[i] = true
				j.running--
			}
		}
		if opt.Telemetry != nil {
			injected := 0
			if iter == 0 {
				injected = b
			}
			opt.Telemetry.RecordIteration(telemetry.IterationStat{
				Iter:            iter,
				Query:           query,
				FrontierSize:    n,
				Mode:            telemetry.ModeJacobi,
				ActiveQueries:   active,
				InjectedQueries: injected,
				EdgesProcessed:  work.Edges,
				LaneRelaxations: work.Relaxes,
				ValueWrites:     work.Writes,
			})
		}
	}
	final := j.old
	if j.vals != nil {
		final = j.vals
	}
	vals := opt.Arena.takeValues(n * b)
	pool.For(n*b, workers, 0, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			vals.Set(c, final[c])
		}
	})
	res.Values = vals
	opt.Arena.releaseSlabs(slabs)
	return res, nil
}

// pagerank is the fused PageRank round over the vertices [lo, hi). A vertex's
// next rank in every lane is the sum of its in-neighbors' shares (sumRows
// into s.row), then PageRankFinish; its new share row is divided here, once,
// for the next round. The shares are the quotients Step divides and are added
// from zero in the same order, so the ranks are Step's bit for bit.
func (j *jacobi) pagerank(s *jacobiScratch, lo, hi int) (c counts) {
	b, vals, share, nextShare, acc := j.b, j.vals, j.old, j.next, s.row
	teleport := queries.PageRankTeleport(j.n)
	for v := lo; v < hi; v++ {
		us, _ := j.geo.rev.OutEdges(graph.VertexID(v))
		sumRows(acc, share, us)
		c.Edges += int64(len(us))
		c.Relaxes += int64(len(us) * j.running)
		row, deg := Cell(v, b, 0), queries.Value(j.geo.outDeg[v])
		for i, sum := range acc {
			cell := row + i
			if j.done[i] {
				nextShare[cell] = share[cell]
				continue
			}
			old, nv := vals[cell], queries.PageRankFinish(teleport, sum)
			vals[cell], nextShare[cell] = nv, nv/deg
			s.resid[i] = queries.MaxResidual(s.resid[i], math.Abs(nv-old))
			if nv != old {
				c.Writes++
			}
		}
	}
	return c
}

// sumRows sets acc[i], for every lane i of rows of len(acc) cells, to the sum
// from zero of cell i of the rows of us, added in their order.
func sumRows(acc, rows []queries.Value, us []graph.VertexID) {
	b := len(acc)
	for i := range acc {
		sum := queries.Value(0)
		for _, u := range us {
			sum += rows[Cell(int(u), b, i)]
		}
		acc[i] = sum
	}
}

// step is the round of any other batch over the vertices [lo, hi): each
// running lane gathers its in-neighbors' values into s.nbrs and calls its
// kernel's Step and Residual.
func (j *jacobi) step(s *jacobiScratch, lo, hi int) (c counts) {
	old, next := j.old, j.next
	for v := lo; v < hi; v++ {
		us, _ := j.geo.rev.OutEdges(graph.VertexID(v))
		nbrs, degs := s.nbrs[:len(us)], s.degs[:len(us)]
		for k, u := range us {
			degs[k] = j.geo.outDeg[u]
		}
		c.Edges += int64(len(us))
		c.Relaxes += int64(len(us) * j.running)
		for i, ker := range j.kers {
			cell := Cell(v, j.b, i)
			if j.done[i] {
				next[cell] = old[cell]
				continue
			}
			for k, u := range us {
				nbrs[k] = old[Cell(int(u), j.b, i)]
			}
			nv := ker.Step(j.n, old[cell], nbrs, degs)
			next[cell] = nv
			s.resid[i] = queries.MaxResidual(s.resid[i], ker.Residual(old[cell], nv))
			if nv != old[cell] {
				c.Writes++
			}
		}
	}
	return c
}
