package core

import (
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// congra models Congra (Pan & Li, ICCD'17), the *asynchronous* concurrent
// design of paper §3.1: every query in the batch is evaluated independently
// by its own parallel Ligra-style evaluation, with no shared global
// iterations — iterations of different queries interleave however the
// scheduler happens to run them. The paper's point about this design is
// that it has no control over traversal alignment: graph accesses may or
// may not overlap, so locality is left to chance. It shares the graph
// (read-only) but neither frontiers nor iteration structure. The whole
// batch runs at once.
type congra struct{}

// Congra is the asynchronous per-query engine ("Congra" in the paper's
// tables).
var Congra Engine = congra{}

func (congra) Name() string { return "Congra" }

// Run gives each query its own asynchronous parallel evaluation (runApart);
// telemetry records interleave across queries — exactly the uncontrolled
// iteration structure the design has, and for the same reason Options.Tracer
// is ignored: interleaved queries make no one address stream. Congra is a
// frontier design: an iterate-to-convergence kernel gets checkBatch's
// refusal, as from every engine without a Jacobi path.
func (congra) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	if queries.AnyConvergent(batch) {
		return nil, checkBatch(g, batch, opt.Alignment, false)
	}
	opt.Tracer = nil
	return runApart(g, batch, opt, 0)
}
