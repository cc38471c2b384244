package baselines

import (
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"

	"github.com/glign/glign/internal/graph"
)

// QueryParallel is the query-level-parallelism design the paper tests and
// dismisses in §4.1: every query is evaluated with a serial textbook
// implementation (as from the Boost Graph Library), and different queries
// run on different threads. It shares nothing — no frontiers, no global
// iterations — and serves as a lower baseline. Having no iteration
// structure, it is the one engine that records no per-iteration telemetry
// (batch-level durations still appear in the run trace).
type QueryParallel struct{}

// Name implements core.Engine.
func (QueryParallel) Name() string { return "Query-Parallel" }

// Run implements core.Engine.
func (QueryParallel) Run(g *graph.Graph, batch []queries.Query, opt core.Options) (*core.BatchResult, error) {
	// Convergence kernels run as Ligra-S runs them, one Jacobi evaluation
	// after another. The parallelism moves inside each evaluation (each
	// one-query batch drives the pool itself) rather than across queries,
	// because pool workers must not submit nested loops to the pool they run
	// on.
	if queries.AnyConvergent(batch) {
		return core.LigraS.Run(g, batch, opt)
	}
	st, err := core.PrepareBatch(g, batch, opt)
	if err != nil {
		return nil, err
	}
	res := st.NewResult()
	// Each query's vector becomes a one-query result (a row of one cell a
	// vertex is the vector itself), copied into its lane like Ligra-S's.
	ones := make([]*core.BatchResult, len(batch))
	par.OrDefault(opt.Pool).For(len(batch), opt.Workers, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ones[i] = &core.BatchResult{B: 1, N: st.N, GlobalIterations: 1,
				Values: queries.Repeat(engine.ReferenceRun(g, batch[i]), 1)}
		}
	})
	for i, one := range ones {
		res.SetLane(i, one)
	}
	return res, nil
}

var _ core.Engine = QueryParallel{}
