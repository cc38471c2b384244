package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// ConvergenceGeometry bundles the graph-shape precomputation every Jacobi
// evaluation needs: the edge-reversed view the pull rounds walk, the
// out-degree of every vertex (convergence kernels normalize by it), and the
// maximum in-degree (sizes the per-worker gather scratch). It is exported so
// internal/core's lane-fused batch evaluator shares the exact construction —
// in-neighbor order must match bit-for-bit between the sequential and the
// batched paths for their float results to be identical.
type ConvergenceGeometry struct {
	Graph    *graph.Graph // what the geometry is of
	Rev      *graph.Graph
	OutDeg   []int32
	MaxInDeg int
}

// NewConvergenceGeometry derives the Jacobi geometry of g. A nil rev makes
// it derive the reversed view itself (g when undirected, g.Reverse()
// otherwise — both enumerate the in-neighbors of a vertex in ascending
// source-vertex order, the order the determinism contract of
// queries.ConvergenceKernel.Step is stated over).
func NewConvergenceGeometry(g, rev *graph.Graph) *ConvergenceGeometry {
	if rev == nil {
		if g.Directed {
			rev = g.Reverse()
		} else {
			rev = g
		}
	}
	n := g.NumVertices()
	geo := &ConvergenceGeometry{Graph: g, Rev: rev, OutDeg: make([]int32, n)}
	for v := 0; v < n; v++ {
		d := g.OutDegree(graph.VertexID(v))
		geo.OutDeg[v] = int32(d)
		if in := rev.OutDegree(graph.VertexID(v)); in > geo.MaxInDeg {
			geo.MaxInDeg = in
		}
	}
	return geo
}

// JacobiScratch is one worker's gather scratch: in-neighbor values and
// out-degrees sized to the maximum in-degree, plus one residual accumulator
// per lane. On a hub graph it is the largest thing a Jacobi round touches
// beside the value slabs, so a run makes one a worker (JacobiScratches), not
// one a chunk a round.
type JacobiScratch struct {
	Nbrs  []queries.Value
	Degs  []int32
	Resid []float64
}

// JacobiScratches hands the workers of one Jacobi run their scratches — the
// single-query RunConvergence and internal/core's lane-fused evaluator both
// take them here. A chunk brackets its work with Get and Put; a scratch is
// made the first time a worker finds none to take.
type JacobiScratches struct {
	pool sync.Pool // of *JacobiScratch
}

// NewJacobiScratches sizes a run's scratches for maxIn in-neighbors and
// `lanes` residual accumulators.
func NewJacobiScratches(maxIn, lanes int) *JacobiScratches {
	s := &JacobiScratches{}
	s.pool.New = func() any {
		return &JacobiScratch{
			Nbrs:  make([]queries.Value, maxIn),
			Degs:  make([]int32, maxIn),
			Resid: make([]float64, lanes),
		}
	}
	return s
}

// Get returns a scratch no other chunk holds, its residual accumulators zero.
func (s *JacobiScratches) Get() *JacobiScratch {
	sc := s.pool.Get().(*JacobiScratch)
	clear(sc.Resid)
	return sc
}

// Put gives a scratch back for the worker's next chunk.
func (s *JacobiScratches) Put(sc *JacobiScratch) { s.pool.Put(sc) }

// atomicMaxFloat raises the float stored in *bits (as math.Float64bits) to
// at least x — the lock-free max-merge worker chunks publish their local
// residual maxima through.
func atomicMaxFloat(bits *uint64, x float64) {
	for {
		old := atomic.LoadUint64(bits)
		if math.Float64frombits(old) >= x {
			return
		}
		if atomic.CompareAndSwapUint64(bits, old, math.Float64bits(x)) {
			return
		}
	}
}

// RunConvergence evaluates a convergence-kernel query on g by synchronous
// Jacobi iteration: every round recomputes all vertices from the previous
// round's in-neighbor values (double-buffered — no CAS, no monotone
// shortcut), and the run finishes when the maximum per-vertex residual drops
// to the kernel's Epsilon or the kernel's MaxRounds cap hits. The
// max-residual criterion is order-independent, so the convergence decision —
// and, with the in-neighbor order contract, every float in Values — is
// identical across worker counts.
//
// Options.Tracer and Options.RecordFrontiers are ignored: access tracing and
// frontier affinity both model the monotone push design, which has no
// counterpart here (every vertex is active every round).
func RunConvergence(g *graph.Graph, q queries.Query, opt Options) (*Result, error) {
	ck, ok := queries.ConvergentOf(q.Kernel)
	if !ok {
		return nil, fmt.Errorf("engine: kernel %s is not a convergence kernel", q.Kernel.Name())
	}
	n := g.NumVertices()
	if int(q.Source) >= n {
		return nil, fmt.Errorf("engine: source v%d out of range (n=%d)", q.Source, n)
	}
	geo := NewConvergenceGeometry(g, opt.ReverseGraph)
	pool := par.OrDefault(opt.Pool)
	workers := opt.Workers

	old := make([]queries.Value, n)
	next := make([]queries.Value, n)
	pool.For(n, workers, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			old[v] = ck.InitialValue(n, graph.VertexID(v), q.Source)
		}
	})

	maxRounds := ck.MaxRounds()
	if opt.MaxIterations > 0 && opt.MaxIterations < maxRounds {
		maxRounds = opt.MaxIterations
	}
	eps := ck.Epsilon()
	res := &Result{}
	sizes := make([]int, 0, iterHintFor(maxRounds))
	var residBits uint64
	scratches := NewJacobiScratches(geo.MaxInDeg, 0) // one lane: its residual is localMax
	for round := 0; round < maxRounds; round++ {
		sizes = append(sizes, n)
		var prevEdges, prevWrites int64
		if opt.Telemetry != nil {
			prevEdges = atomic.LoadInt64(&res.EdgesTraversed)
			prevWrites = atomic.LoadInt64(&res.ValueWrites)
		}
		atomic.StoreUint64(&residBits, 0)
		pool.For(n, workers, 0, func(lo, hi int) {
			scratch := scratches.Get()
			defer scratches.Put(scratch)
			var edges, writes int64
			localMax := 0.0
			for v := lo; v < hi; v++ {
				us, _ := geo.Rev.OutEdges(graph.VertexID(v))
				for j, u := range us {
					scratch.Nbrs[j] = old[u]
					scratch.Degs[j] = geo.OutDeg[u]
				}
				nv := ck.Step(n, old[v], scratch.Nbrs[:len(us)], scratch.Degs[:len(us)])
				next[v] = nv
				if r := ck.Residual(old[v], nv); r > localMax {
					localMax = r
				}
				if nv != old[v] {
					writes++
				}
				edges += int64(len(us))
			}
			atomic.AddInt64(&res.EdgesTraversed, edges)
			atomic.AddInt64(&res.VerticesProcessed, int64(hi-lo))
			atomic.AddInt64(&res.ValueWrites, writes)
			atomicMaxFloat(&residBits, localMax)
		})
		maxResid := math.Float64frombits(atomic.LoadUint64(&residBits))
		old, next = next, old
		res.Iterations++
		if opt.Telemetry != nil {
			iterEdges := atomic.LoadInt64(&res.EdgesTraversed) - prevEdges
			opt.Telemetry.RecordIteration(telemetry.IterationStat{
				Iter:            round,
				Query:           opt.TelemetryLane,
				FrontierSize:    n,
				Mode:            telemetry.ModeJacobi,
				ActiveQueries:   1,
				EdgesProcessed:  iterEdges,
				LaneRelaxations: iterEdges,
				ValueWrites:     atomic.LoadInt64(&res.ValueWrites) - prevWrites,
			})
		}
		res.Residual = maxResid
		if maxResid <= eps {
			break
		}
	}
	res.FrontierSizes = sizes
	res.Values = old
	return res, nil
}

// iterHintFor caps the FrontierSizes preallocation: convergence runs record
// one entry per round, and a round cap in the thousands should not reserve
// kilobytes up front for runs that converge in tens of rounds.
func iterHintFor(maxRounds int) int {
	if maxRounds > 256 {
		return 256
	}
	return maxRounds
}
