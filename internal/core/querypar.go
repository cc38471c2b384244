package core

import (
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
)

// queryParallel is the query-level-parallelism design the paper tests and
// dismisses in §4.1: every query is evaluated with a serial textbook
// implementation (as from the Boost Graph Library), and different queries
// run on different threads. It shares nothing — no frontiers, no global
// iterations — and serves as a lower baseline. Having no iteration
// structure, it is the one engine that records no per-iteration telemetry
// (batch-level durations still appear in the run trace).
type queryParallel struct{}

// QueryParallel is the one-thread-per-query engine ("Query-Parallel").
var QueryParallel Engine = queryParallel{}

func (queryParallel) Name() string { return "Query-Parallel" }

func (queryParallel) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	// Convergence kernels run as Ligra-S runs them, one Jacobi evaluation
	// after another. The parallelism moves inside each evaluation (each
	// one-query batch drives the pool itself) rather than across queries,
	// because pool workers must not submit nested loops to the pool they run
	// on.
	if queries.AnyConvergent(batch) {
		return LigraS.Run(g, batch, opt)
	}
	if err := checkBatch(g, batch, opt.Alignment, false); err != nil {
		return nil, err
	}
	// setLane writes every cell of the array, so it is taken unfilled.
	n, b := g.NumVertices(), len(batch)
	res := &BatchResult{B: b, N: n, Values: opt.Arena.takeValues(n * b), arena: opt.Arena}
	// Each query's vector becomes a one-query result (a row of one cell a
	// vertex is the vector itself), copied into its lane like Ligra-S's.
	ones := make([]*BatchResult, b)
	par.OrDefault(opt.Pool).For(b, opt.Workers, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ones[i] = &BatchResult{B: 1, N: n, GlobalIterations: 1,
				Values: queries.Repeat(oracle.ReferenceRun(g, batch[i]), 1)}
		}
	})
	for i, one := range ones {
		res.setLane(i, one)
	}
	return res, nil
}
