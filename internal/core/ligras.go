package core

import (
	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// ligraS evaluates the queries of a batch one after another with the
// single-query Ligra engine — the paper's "Ligra-S" baseline (Table 5).
// Each query still runs with full vertex-level parallelism; there is simply
// no graph-access sharing across queries.
type ligraS struct{}

// LigraS is the sequential baseline engine.
var LigraS Engine = ligraS{}

func (ligraS) Name() string { return "Ligra-S" }

func (ligraS) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	// Convergence kernels keep the sequential shape: one independent Jacobi
	// evaluation per query, no sharing across queries.
	if queries.AnyConvergent(batch) {
		return RunConvergenceSequential(g, batch, opt)
	}
	st, err := PrepareBatch(g, batch, opt)
	if err != nil {
		return nil, err
	}
	res := st.NewResult()
	for i, q := range batch {
		res.Absorb(i, engine.Run(g, q, engine.Options{
			Workers:       opt.Workers,
			Pool:          opt.Pool,
			MaxIterations: opt.MaxIterations,
			Tracer:        opt.Tracer,
			Telemetry:     opt.Telemetry,
			TelemetryLane: i,
		}))
	}
	return res, nil
}
