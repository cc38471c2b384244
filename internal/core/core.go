package core

import (
	"fmt"
	"sort"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// The batched value array uses one layout: each query lane owns a
// cache-line-aligned segment (cell of vertex v, query i at LaneOff[i]+v), so
// concurrent lanes never share a line and per-lane passes — the Jacobi gather
// of convergence kernels, per-query extraction — are unit-stride. The paper's
// §3.5 interleaved layout (cell v*B+i) survives only as the address model of
// the cache-trace simulation (tracing.go), which computes those addresses
// itself and never reads real cell indices.

// laneOffsets lays an n x b value array out as b lane segments, each rounded
// up to a multiple of 8 cells so every 8-byte-cell segment starts and ends on
// a 64-byte line boundary. total is the array length including the padding.
func laneOffsets(n, b int) (laneOff []int, total int) {
	stride := (n + 7) &^ 7
	laneOff = make([]int, b)
	for i := range laneOff {
		laneOff[i] = i * stride
	}
	return laneOff, stride * b
}

// Options configures a batch evaluation.
type Options struct {
	// Workers bounds parallelism; <= 0 means GOMAXPROCS. Runs with a Tracer
	// are forced single-threaded so the access stream is deterministic.
	Workers int
	// Pool is the work-stealing scheduler the engines submit their parallel
	// loops to; nil means the shared par.Default pool. Injecting a pool
	// isolates a run's scheduling (and its steal/imbalance telemetry) from
	// other concurrent work.
	Pool *par.Pool
	// Alignment is the alignment vector I (paper Definition 3.3):
	// Alignment[i] is the global iteration at which query i's evaluation
	// starts. Nil means all zeros (every query starts immediately).
	Alignment []int
	// MaxIterations aborts evaluation when > 0 (tests only; monotone
	// kernels otherwise reach a fixed point).
	MaxIterations int
	// Tracer, when non-nil, receives every simulated memory access: the
	// frontier engines then run their serial traced model (tracing.go).
	Tracer memtrace.Tracer
	// ReverseGraph, when non-nil, enables direction optimization in the
	// query-oblivious engine: dense global iterations run in pull mode over
	// this edge-reversed graph (see oblivious.go). Other engines and tracing
	// runs ignore it.
	ReverseGraph *graph.Graph
	// Telemetry, when non-nil, receives one IterationStat per global
	// iteration (per per-query iteration for sequential engines). Nil —
	// the default — makes every hook a no-op nil-receiver call.
	Telemetry *telemetry.BatchTrace
}

// BatchResult is the outcome of evaluating one batch.
type BatchResult struct {
	// B is the batch size (number of queries).
	B int
	// N is the vertex count of the graph.
	N int
	// Values is the flat batched value array: vertex v, query q lives at
	// LaneOff[q]+v (see laneOffsets).
	Values  *queries.Values
	LaneOff []int
	// GlobalIterations counts executed global iterations.
	GlobalIterations int
	// UnionFrontierSizes records the unified frontier size entering every
	// global iteration.
	UnionFrontierSizes []int
	// EdgesProcessed counts edge visits (per active vertex, per out-edge);
	// LaneRelaxations counts per-query relaxation attempts on edges. Their
	// ratio exposes the extra computation the query-oblivious design
	// trades for locality.
	EdgesProcessed  int64
	LaneRelaxations int64
	// ValueWrites counts successful relaxations — value-array improvements
	// actually installed (the write traffic behind paper §3.5's layout).
	ValueWrites int64
	// LaneRounds, LaneConverged and LaneResiduals describe
	// iterate-to-convergence runs (all nil for monotone batches): per lane,
	// the rounds executed, whether the max residual reached the kernel's
	// Epsilon before the round cap, and the final max residual.
	LaneRounds    []int
	LaneConverged []bool
	LaneResiduals []float64
}

// Value returns the final value of vertex v for query q.
func (r *BatchResult) Value(q int, v graph.VertexID) queries.Value {
	return r.Values.Get(r.LaneOff[q] + int(v))
}

// QueryValues copies out the full value vector of query q.
func (r *BatchResult) QueryValues(q int) []queries.Value {
	out := make([]queries.Value, r.N)
	for v := 0; v < r.N; v++ {
		out[v] = r.Values.Get(r.LaneOff[q] + v)
	}
	return out
}

// Engine evaluates a batch of concurrent queries on a graph.
type Engine interface {
	// Name returns the method name as used in the paper's tables.
	Name() string
	// Run evaluates batch on g.
	Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error)
}

// BatchSetup carries the pieces every concurrent engine sets up the same
// way: per-lane kernels, identities, the flat value array, and the delayed
// injection schedule. It is exported so the comparator engines in
// internal/baselines share the exact same batch semantics.
type BatchSetup struct {
	B       int
	N       int
	Kernels []queries.Kernel
	// Kinds[i] is queries.KindOf(Kernels[i]), the fast-path selector
	// queries.RelaxImprove takes.
	Kinds []queries.OpKind
	// groups is every lane, grouped by kind (see laneGroup).
	groups   []laneGroup
	Identity []queries.Value
	Vals     *queries.Values
	// LaneOff realizes the value layout: vertex v, query i lives at
	// LaneOff[i]+v.
	LaneOff []int
	// Alignment[i] = global iteration at which query i starts.
	Alignment []int
	Sources   []graph.VertexID
	// schedule lists the lanes in injection order — by alignment, then by
	// lane — so Drive walks a cursor instead of rescanning Alignment every
	// iteration.
	schedule []int
}

// Cell returns the value-array index of vertex v, query lane i.
func (st *BatchSetup) Cell(v, i int) int {
	return st.LaneOff[i] + v
}

// NewResult builds the engine result envelope carrying the setup's sizes,
// value array and layout, so BatchResult.Value addresses cells the same way
// the engine wrote them.
func (st *BatchSetup) NewResult() *BatchResult {
	return &BatchResult{B: st.B, N: st.N, Values: st.Vals, LaneOff: st.LaneOff}
}

// PrepareBatch validates a batch against a graph and options and builds its
// shared state (value array initialized to per-lane identities, injection
// schedule from the alignment vector).
func PrepareBatch(g *graph.Graph, batch []queries.Query, opt Options) (*BatchSetup, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	n := g.NumVertices()
	b := len(batch)
	st := &BatchSetup{
		B:        b,
		N:        n,
		Kernels:  make([]queries.Kernel, b),
		Identity: make([]queries.Value, b),
		Sources:  make([]graph.VertexID, b),
	}
	for i, q := range batch {
		if int(q.Source) >= n {
			return nil, fmt.Errorf("core: query %d source v%d out of range (n=%d)", i, q.Source, n)
		}
		// Monotone setup is meaningless for iterate-to-convergence kernels
		// (no identity fill, no CAS relaxation): engines with a Jacobi path
		// route to RunConvergenceBatch before preparing, so reaching this
		// check means the engine has none.
		if _, ok := queries.ConvergentOf(q.Kernel); ok {
			return nil, fmt.Errorf("core: query %d (%s) is an iterate-to-convergence kernel, which this engine does not support (route through Glign, Krill, Ligra-C, Ligra-S or Query-Parallel)", i, q)
		}
		st.Kernels[i] = q.Kernel
		st.Identity[i] = q.Kernel.Identity()
		st.Sources[i] = q.Source
	}
	st.Kinds = queries.KindsOf(st.Kernels)
	st.groups = groupLanes(st.Kinds)
	if st.Alignment = opt.Alignment; st.Alignment == nil {
		st.Alignment = make([]int, b)
	}
	if len(st.Alignment) != b {
		return nil, fmt.Errorf("core: alignment vector length %d != batch size %d", len(st.Alignment), b)
	}
	for _, a := range st.Alignment {
		if a < 0 {
			return nil, fmt.Errorf("core: negative alignment %d", a)
		}
	}
	st.schedule = make([]int, b)
	for i := range st.schedule {
		st.schedule[i] = i
	}
	sort.SliceStable(st.schedule, func(i, j int) bool {
		return st.Alignment[st.schedule[i]] < st.Alignment[st.schedule[j]]
	})
	var total int
	st.LaneOff, total = laneOffsets(n, b)
	st.Vals = queries.NewValues(total, 0)
	// The identity fill touches every cell; for large graphs that is the
	// batch's first cold pass over the value array, so spread it over the
	// pool (disjoint vertex blocks; Set stores are atomic). Padding cells at
	// lane-segment tails are never addressed and stay zero.
	par.OrDefault(opt.Pool).For(n, opt.Workers, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for i, off := range st.LaneOff {
				st.Vals.Set(off+v, st.Identity[i])
			}
		}
	})
	return st, nil
}
