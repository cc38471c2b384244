package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// Cell is the one place the batched value array's layout is written down: the
// paper's §3.5 ValArray[v*B+i]. Vertex v owns the row of exactly b cells
// starting at Cell(v, b, 0), its value for query lane i sits at offset i of
// that row, and rows are not padded (a batch of one or two queries, the
// common case when serving, would otherwise pay for a full cache line per
// vertex). Relaxing an edge for the queries that changed at its source — what
// the query-oblivious frontier does — therefore reads within one row and
// writes within another, and a fused Jacobi round reads in-neighbors' rows;
// per-query passes (QueryValues, the Jacobi evaluator's per-lane gather) are
// the strided ones.
func Cell(v, b, i int) int { return v*b + i }

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
	// Telemetry, when non-nil, receives one IterationStat per global
	// iteration (per per-query iteration for sequential engines). Nil —
	// the default — makes every hook a no-op nil-receiver call.
	Telemetry *telemetry.BatchTrace
	// Arena, when non-nil, is where the batch takes its value array, its
	// push state and its Jacobi state from, and what they go back to
	// (BatchResult.Release for the value array), so that the arena's owner
	// allocates them once rather than once a batch. Nil — what tests and
	// direct Engine.Run callers pass — allocates them through the same calls.
	Arena *Arena
}

// BatchResult is the outcome of evaluating one batch.
type BatchResult struct {
	// B is the batch size (number of queries).
	B int
	// N is the vertex count of the graph.
	N int
	// Values is the flat batched value array: vertex v, query q lives at
	// Cell(v, B, q). Nil once Release has been called.
	Values *queries.Values
	// arena is what Release hands Values back to (nil: nothing).
	arena *Arena
	// GlobalIterations counts executed global iterations.
	GlobalIterations int
	// EdgesProcessed counts edge visits (per active vertex, per out-edge);
	// LaneRelaxations counts per-query relaxation attempts on edges. Their
	// ratio is how many queries an edge visit serves.
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
	return r.Values.Get(Cell(int(v), r.B, q))
}

// QueryValues copies out the full value vector of query q: one strided pass
// over the value array. To take every query's vector, use AllQueryValues.
func (r *BatchResult) QueryValues(q int) []queries.Value {
	out := make([]queries.Value, r.N)
	for v := range out {
		out[v] = r.Values.Get(Cell(v, r.B, q))
	}
	return out
}

// AllQueryValues copies out the value vector of every query — element q is
// QueryValues(q) — in one pass over the value array: each vertex's row is
// read once and scattered into the B vectors, on pool (nil: the default one)
// over disjoint vertex ranges.
func (r *BatchResult) AllQueryValues(pool *par.Pool, workers int) [][]queries.Value {
	out := make([][]queries.Value, r.B)
	for q := range out {
		out[q] = make([]queries.Value, r.N)
	}
	par.OrDefault(pool).For(r.N, workers, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			row := Cell(v, r.B, 0)
			for q := range out {
				out[q][v] = r.Values.Get(row + q)
			}
		}
	})
	return out
}

// Release ends the caller's use of Values. The array goes back to the arena
// the batch ran with (Options.Arena; with none it is simply dropped), whose
// owner's next batch overwrites it, and Values is nil from here on — a late
// reader panics instead of reading another batch's cells. Vectors copied out
// before (QueryValues, AllQueryValues) share nothing with the array and stay
// the caller's. Call it once the last extraction has returned; a result that
// is never released costs its owner one fresh array, nothing else.
func (r *BatchResult) Release() {
	r.arena.releaseValues(r.Values)
	r.Values = nil
}

// setLane copies one — the one-query result of the query in lane, evaluated
// apart from the batch's other queries — into that lane and releases it: how
// the engines that share nothing across queries (Ligra-S, Congra,
// Query-Parallel) build their result. Work counters add up and
// GlobalIterations is the longest query's. It is not safe for concurrent use.
func (r *BatchResult) setLane(lane int, one *BatchResult) {
	for v := 0; v < r.N; v++ { // a one-query row is its vertex's cell
		r.Values.Set(Cell(v, r.B, lane), one.Values.Get(v))
	}
	one.Release()
	r.GlobalIterations = max(r.GlobalIterations, one.GlobalIterations)
	r.count(counts{one.EdgesProcessed, one.LaneRelaxations, one.ValueWrites})
	if one.LaneRounds != nil {
		if r.LaneRounds == nil {
			r.LaneRounds, r.LaneConverged, r.LaneResiduals = make([]int, r.B), make([]bool, r.B), make([]float64, r.B)
		}
		r.LaneRounds[lane], r.LaneConverged[lane], r.LaneResiduals[lane] = one.LaneRounds[0], one.LaneConverged[0], one.LaneResiduals[0]
	}
}

// Engine evaluates a batch of concurrent queries on a graph.
type Engine interface {
	// Name returns the method name as used in the paper's tables.
	Name() string
	// Run evaluates batch on g.
	Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error)
}

// batchSetup carries the pieces every frontier engine sets up the same way:
// per-lane kernels, identities, the flat value array, and the delayed
// injection schedule.
type batchSetup struct {
	B       int
	N       int
	Kernels []queries.Kernel
	// Kinds[i] is queries.KindOf(Kernels[i]), the fast-path selector
	// queries.RelaxImprove takes.
	Kinds []queries.OpKind
	// groups is every lane, grouped by kind (see laneGroup).
	groups []laneGroup
	// rowKind is the kind under which an edge can be relaxed in every lane
	// with one pass over the destination's row (queries.RelaxImproveRow): the
	// batch is homogeneous, of a built-in kind, and wider than one lane — a
	// row of one cell is the cell, and the lane loop reaches it with less
	// ceremony. OpCustom when there is no such kind.
	rowKind  queries.OpKind
	Identity []queries.Value
	// Vals comes from Options.Arena, which drive passes on to the result for
	// BatchResult.Release.
	Vals *queries.Values
	// Alignment[i] = global iteration at which query i starts.
	Alignment []int
	Sources   []graph.VertexID
	// schedule lists the lanes in injection order — by alignment, then by
	// lane — so drive walks a cursor instead of rescanning Alignment every
	// iteration.
	schedule []int
	// slots bounds the pool slot of a Step's Body: the pool's
	// Slots(Options.Workers).
	slots int
}

// Cell returns the value-array index of vertex v, query lane i.
func (st *batchSetup) Cell(v, i int) int {
	return Cell(v, st.B, i)
}

// prepareBatch validates a batch against a graph and options and builds its
// shared state (value array initialized to per-lane identities, injection
// schedule from the alignment vector).
func prepareBatch(g *graph.Graph, batch []queries.Query, opt Options) (*batchSetup, error) {
	// Monotone setup is meaningless for iterate-to-convergence kernels (no
	// identity fill, no CAS relaxation): engines with a Jacobi path route to
	// it before preparing, so a convergence kernel here means the engine has
	// none.
	if err := checkBatch(g, batch, opt.Alignment, false); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	b := len(batch)
	st := &batchSetup{
		B:        b,
		N:        n,
		Kernels:  make([]queries.Kernel, b),
		Identity: make([]queries.Value, b),
		Sources:  make([]graph.VertexID, b),
	}
	for i, q := range batch {
		st.Kernels[i] = q.Kernel
		st.Identity[i] = q.Kernel.Identity()
		st.Sources[i] = q.Source
	}
	st.Kinds = queries.KindsOf(st.Kernels)
	st.groups = groupLanes(st.Kinds)
	if len(st.groups) == 1 && b > 1 {
		st.rowKind = st.groups[0].kind
	}
	if st.Alignment = opt.Alignment; st.Alignment == nil {
		st.Alignment = make([]int, b)
	}
	st.schedule = make([]int, b)
	for i := range st.schedule {
		st.schedule[i] = i
	}
	slices.SortStableFunc(st.schedule, func(i, j int) int {
		return cmp.Compare(st.Alignment[i], st.Alignment[j])
	})
	// Taken last, past every way to fail, so a rejected batch leaves the arena
	// as it found it. The identity fill is the one pass that initializes the
	// array: a new one is filled as it is made, before anything can see it;
	// an earlier batch's is filled over the pool, because on a large graph it
	// is the batch's first cold pass (disjoint row blocks, published by the
	// pool's join).
	pool := par.OrDefault(opt.Pool)
	st.slots = pool.Slots(opt.Workers)
	if st.Vals = opt.Arena.spareValues(n * b); st.Vals == nil {
		st.Vals = queries.Repeat(st.Identity, n)
		return st, nil
	}
	pool.For(n, opt.Workers, 0, func(lo, hi int) {
		st.Vals.FillRows(st.Identity, lo, hi)
	})
	return st, nil
}

// checkBatch rejects a batch no engine can evaluate — an empty one, a source
// outside g, an alignment vector of the wrong length or with a negative
// entry — and one that is not all of the paradigm convergent says.
func checkBatch(g *graph.Graph, batch []queries.Query, alignment []int, convergent bool) error {
	if len(batch) == 0 {
		return fmt.Errorf("core: empty batch")
	}
	for i, q := range batch {
		if n := g.NumVertices(); int(q.Source) >= n {
			return fmt.Errorf("core: query %d source v%d out of range (n=%d)", i, q.Source, n)
		}
		switch _, ok := queries.ConvergentOf(q.Kernel); {
		case ok && !convergent:
			return fmt.Errorf("core: query %d (%s) is an iterate-to-convergence kernel, which this engine does not support (route through Glign, Krill, Ligra-C, Ligra-S or Query-Parallel)", i, q)
		case !ok && convergent:
			return fmt.Errorf("core: mixed-paradigm batch: query %d (%s) is monotone; split batches by paradigm before routing", i, q)
		}
	}
	if alignment != nil && len(alignment) != len(batch) {
		return fmt.Errorf("core: alignment vector length %d != batch size %d", len(alignment), len(batch))
	}
	for _, a := range alignment {
		if a < 0 {
			return fmt.Errorf("core: negative alignment %d", a)
		}
	}
	return nil
}
