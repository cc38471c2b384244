package baselines

import (
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// Congra models Congra (Pan & Li, ICCD'17), the *asynchronous* concurrent
// design of paper §3.1: every query in the batch is evaluated independently
// by its own parallel Ligra-style evaluation, with no shared global
// iterations — iterations of different queries interleave however the
// scheduler happens to run them. The paper's point about this design is
// that it has no control over traversal alignment: graph accesses may or
// may not overlap, so locality is left to chance. It shares the graph
// (read-only) but neither frontiers nor iteration structure.
type Congra struct {
	// ConcurrentQueries bounds how many queries run at once (Congra's
	// scheduler admits queries up to a memory-bandwidth budget); <= 0 runs
	// the whole batch at once.
	ConcurrentQueries int
}

// Name implements core.Engine.
func (Congra) Name() string { return "Congra" }

// Run implements core.Engine. Each query gets its own asynchronous parallel
// evaluation (core.RunApart); telemetry records interleave across queries —
// exactly the uncontrolled iteration structure the design has, and for the
// same reason Options.Tracer is ignored: interleaved queries make no one
// address stream. Congra is a frontier design: an iterate-to-convergence
// kernel gets PrepareBatch's refusal, as from every engine without a Jacobi
// path.
func (e Congra) Run(g *graph.Graph, batch []queries.Query, opt core.Options) (*core.BatchResult, error) {
	if queries.AnyConvergent(batch) {
		_, err := core.PrepareBatch(g, batch, opt)
		return nil, err
	}
	opt.Tracer = nil
	return core.RunApart(g, batch, opt, e.ConcurrentQueries)
}

var _ core.Engine = Congra{}
