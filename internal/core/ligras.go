package core

import (
	"sync"
	"sync/atomic"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// ligraS evaluates the queries of a batch one after another — the paper's
// "Ligra-S" baseline (Table 5). Each query is a batch of its own on
// GlignIntra, whose query-oblivious frontier at one query is the
// single-query Ligra engine (its frontier bit is the lane bit), so each
// query still runs with full vertex-level parallelism; there is simply no
// graph-access sharing across queries.
type ligraS struct{}

// LigraS is the sequential baseline engine.
var LigraS Engine = ligraS{}

func (ligraS) Name() string { return "Ligra-S" }

func (ligraS) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	return RunApart(g, batch, opt, 1)
}

// RunApart evaluates every query of batch apart from the others, each as
// GlignIntra's one-query batch (a convergence kernel takes the Jacobi
// evaluator) whose telemetry records carry the query's lane, and gathers the
// answers with SetLane. concurrency goroutines take the lanes in order — at
// 1, Ligra-S, one query after another; above, Congra's interleaving; at <= 0,
// one a query. They are not pool workers, so no evaluation nests on the
// pool. The batch must be of one paradigm; Options.Alignment is checked and
// ignored, as there are no global iterations to delay a query by.
func RunApart(g *graph.Graph, batch []queries.Query, opt Options, concurrency int) (*BatchResult, error) {
	if err := checkBatch(g, batch, opt.Alignment, queries.AnyConvergent(batch)); err != nil {
		return nil, err
	}
	n, b := g.NumVertices(), len(batch)
	res := &BatchResult{B: b, N: n, Values: opt.Arena.takeValues(n * b), arena: opt.Arena}
	one := opt
	one.Alignment = nil
	sizes, errs := make([][]int, b), make([]error, b)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next atomic.Int64 // the next lane to evaluate
	if concurrency <= 0 || concurrency > b {
		concurrency = b
	}
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < b; i = int(next.Add(1)) - 1 {
				r, err := runOblivious(g, batch[i:i+1], one, i)
				if errs[i] = err; err == nil {
					sizes[i] = r.UnionFrontierSizes
					mu.Lock()
					res.SetLane(i, r)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	// A union frontier is not meaningful here: UnionFrontierSizes is the
	// history of the longest query, the lowest lane's among equals however
	// the lanes finished.
	for i, s := range sizes {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if len(s) > len(res.UnionFrontierSizes) {
			res.UnionFrontierSizes = s
		}
	}
	return res, nil
}
