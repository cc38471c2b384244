package engine

import (
	"sync/atomic"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// Options configures a run.
type Options struct {
	// Workers bounds parallelism; <= 0 means GOMAXPROCS. Tracing runs are
	// forced single-threaded for deterministic access order.
	Workers int
	// Pool is the work-stealing scheduler the run submits its parallel loops
	// to; nil means the shared par.Default pool. Injecting a pool isolates a
	// run's scheduling (and its steal/imbalance telemetry) from other
	// concurrent work.
	Pool *par.Pool
	// MaxIterations stops evaluation early when > 0 (monotone kernels
	// otherwise run to their natural fixed point).
	MaxIterations int
	// Tracer, when non-nil, receives every memory access of the run.
	Tracer memtrace.Tracer
	// RecordFrontiers retains the frontier subset of every iteration in
	// Result.Frontiers (used by the affinity analyses of internal/align).
	RecordFrontiers bool
	// Telemetry, when non-nil, receives one IterationStat per iteration
	// with Query = TelemetryLane (sequential batch engines evaluate one
	// query at a time, so their "global" iterations are per-query).
	Telemetry *telemetry.BatchTrace
	// TelemetryLane is the batch lane recorded in telemetry records.
	TelemetryLane int
}

// Result carries the outcome of a single-query evaluation.
type Result struct {
	// Values holds the final value of every vertex (Identity where
	// unreached).
	Values []queries.Value
	// Iterations is the number of executed iterations (EdgeMap rounds).
	Iterations int
	// FrontierSizes records |frontier| entering each iteration;
	// FrontierSizes[0] == 1 (the source). This is the raw material of the
	// paper's Figure 7.
	FrontierSizes []int
	// EdgesTraversed counts relaxation attempts; VerticesProcessed counts
	// active-vertex visits; ValueWrites counts successful relaxations.
	EdgesTraversed    int64
	VerticesProcessed int64
	ValueWrites       int64
	// Frontiers holds the frontier of each iteration when
	// Options.RecordFrontiers is set (Frontiers[j] enters iteration j).
	Frontiers []*frontier.Subset
}

// addressing captures the simulated memory layout of a run for tracing.
type addressing struct {
	offsets, targets, weights, values, curFront, nextFront int64
}

func layoutFor(g *graph.Graph) addressing {
	var l memtrace.Layout
	n := int64(g.NumVertices())
	m := int64(g.NumEdges())
	a := addressing{
		offsets: l.Place((n + 1) * 4),
		targets: l.Place(m * 4),
	}
	if g.Weighted() {
		a.weights = l.Place(m * 4)
	}
	a.values = l.Place(n * 8)
	a.curFront = l.Place((n + 63) / 64 * 8)
	a.nextFront = l.Place((n + 63) / 64 * 8)
	return a
}

// Run evaluates the query q on g to its fixed point and returns the result.
func Run(g *graph.Graph, q queries.Query, opt Options) *Result {
	n := g.NumVertices()
	k := q.Kernel
	kind := queries.KindOf(k)
	vals := queries.NewValues(n, k.Identity())
	vals.Set(int(q.Source), k.SourceValue())

	cur := frontier.FromVertices(n, q.Source)
	res := &Result{}

	// Monotone kernels converge in O(diameter) rounds and capped runs bound
	// their history exactly, so sizing the per-iteration records up front
	// keeps the traversal loop free of append growth (glignlint/hotalloc).
	iterHint := opt.MaxIterations
	if iterHint <= 0 {
		iterHint = 64
	}
	res.FrontierSizes = make([]int, 0, iterHint)
	// Reserved unconditionally (one small slice header) so the reservation
	// dominates the guarded appends on every path; consumers only ever
	// range/len over Frontiers, so empty and nil are interchangeable.
	res.Frontiers = make([]*frontier.Subset, 0, iterHint)

	tr := opt.Tracer
	pool := par.OrDefault(opt.Pool)
	workers := opt.Workers
	if tr != nil {
		workers = 1
	}
	var addr addressing
	if tr != nil {
		addr = layoutFor(g)
	}

	// scratch recycles the previous iteration's frontier as the next round's
	// output bitmap, so the steady state allocates nothing per iteration. It
	// stays nil while RecordFrontiers is on: the recorded history owns every
	// retired frontier and must not be overwritten.
	var scratch *frontier.Subset
	for iter := 0; !cur.IsEmpty(); iter++ {
		if opt.MaxIterations > 0 && iter >= opt.MaxIterations {
			break
		}
		frontierSize := cur.Count()
		res.FrontierSizes = append(res.FrontierSizes, frontierSize)
		if opt.RecordFrontiers {
			res.Frontiers = append(res.Frontiers, cur)
		}
		var prevEdges, prevWrites int64
		if opt.Telemetry != nil {
			prevEdges = atomic.LoadInt64(&res.EdgesTraversed)
			prevWrites = atomic.LoadInt64(&res.ValueWrites)
		}
		next := scratch
		scratch = nil
		if next == nil {
			next = frontier.New(n)
		} else {
			next.Clear()
		}
		active := cur.Sparse()
		if tr != nil {
			// Materializing the sparse view scans the frontier bitmap.
			traceScan(tr, addr.curFront, int64(len(cur.Words()))*8)
		}
		pool.For(len(active), workers, 0, func(lo, hi int) {
			var edges, verts, writes int64
			for i := lo; i < hi; i++ {
				v := active[i]
				verts++
				if tr != nil {
					tr.Access(addr.offsets+int64(v)*4, 8, false)
					tr.Access(addr.values+int64(v)*8, 8, false)
				}
				sv := vals.Get(int(v))
				nbrs, ws := g.OutEdges(v)
				for j, d := range nbrs {
					edges++
					w := graph.Weight(1)
					if ws != nil {
						w = ws[j]
					}
					if tr != nil {
						eo := int64(g.Offsets[v]) + int64(j)
						tr.Access(addr.targets+eo*4, 4, false)
						if ws != nil {
							tr.Access(addr.weights+eo*4, 4, false)
						}
						tr.Access(addr.values+int64(d)*8, 8, false)
					}
					if queries.RelaxImprove(vals, kind, k, int(d), sv, w) {
						writes++
						if tr != nil {
							tr.Access(addr.values+int64(d)*8, 8, true)
							tr.Access(addr.nextFront+int64(d>>6)*8, 8, true)
						}
						next.AddSync(d)
					}
				}
			}
			atomic.AddInt64(&res.EdgesTraversed, edges)
			atomic.AddInt64(&res.VerticesProcessed, verts)
			atomic.AddInt64(&res.ValueWrites, writes)
		})
		res.Iterations++
		if !opt.RecordFrontiers {
			scratch = cur
		}
		cur = next
		if opt.Telemetry != nil {
			injected := 0
			if iter == 0 {
				injected = 1 // the source, seeded before the loop
			}
			iterEdges := atomic.LoadInt64(&res.EdgesTraversed) - prevEdges
			opt.Telemetry.RecordIteration(telemetry.IterationStat{
				Iter:            iter,
				Query:           opt.TelemetryLane,
				FrontierSize:    frontierSize,
				Mode:            telemetry.ModePush,
				ActiveQueries:   1,
				InjectedQueries: injected,
				EdgesProcessed:  iterEdges,
				LaneRelaxations: iterEdges,
				ValueWrites:     atomic.LoadInt64(&res.ValueWrites) - prevWrites,
			})
		}
		if tr != nil {
			addr.curFront, addr.nextFront = addr.nextFront, addr.curFront
		}
	}
	res.Values = vals.Snapshot()
	return res
}

// traceScan issues sequential 8-byte reads across a region, modelling a
// bitmap scan.
func traceScan(tr memtrace.Tracer, base, size int64) {
	for off := int64(0); off < size; off += 8 {
		tr.Access(base+off, 8, false)
	}
}

// BFSHops runs an unweighted BFS from src and returns the hop count of every
// vertex as int32 (-1 where unreachable). It is the precompute primitive of
// inter-iteration alignment (paper Figure 9 line 5: leastHops via bfs on the
// reversed graph).
func BFSHops(g *graph.Graph, src graph.VertexID, workers int) []int32 {
	res := Run(g, queries.Query{Kernel: queries.BFS, Source: src}, Options{Workers: workers})
	hops := make([]int32, len(res.Values))
	par.For(len(res.Values), workers, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if res.Values[i] == queries.BFS.Identity() {
				hops[i] = -1
			} else {
				hops[i] = int32(res.Values[i])
			}
		}
	})
	return hops
}
