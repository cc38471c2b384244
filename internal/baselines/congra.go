package baselines

import (
	"sync"

	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/engine"
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

// Run implements core.Engine.
func (e Congra) Run(g *graph.Graph, batch []queries.Query, opt core.Options) (*core.BatchResult, error) {
	st, err := core.PrepareBatch(g, batch, opt)
	if err != nil {
		return nil, err
	}
	res := st.NewResult()
	limit := e.ConcurrentQueries
	if limit <= 0 {
		limit = len(batch)
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	results := make([]*engine.Result, len(batch))
	for i, q := range batch {
		wg.Add(1)
		go func(i int, q queries.Query) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Each query gets its own asynchronous parallel evaluation.
			// Telemetry records interleave across queries — exactly the
			// uncontrolled iteration structure the design has.
			results[i] = engine.Run(g, q, engine.Options{
				Workers:       opt.Workers,
				Pool:          opt.Pool,
				MaxIterations: opt.MaxIterations,
				Telemetry:     opt.Telemetry,
				TelemetryLane: i,
			})
		}(i, q)
	}
	wg.Wait()
	for i, r := range results {
		res.Absorb(i, r)
	}
	return res, nil
}

var _ core.Engine = Congra{}
