package align

import (
	"time"

	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
)

// DefaultHubCount is the paper's K: the number of high-degree vertices
// probed (top-4 throughout the evaluation section).
const DefaultHubCount = 4

// Profile is the per-graph precompute of paper Figure 9 (lines 1-7): the
// top-K high-out-degree vertices and the closestHV array, the least hop
// count from every vertex to its nearest hub (computed by BFS from every hub
// on the edge-reversed graph). It is built once when a graph is loaded and
// shared by inter-iteration alignment and affinity-oriented batching.
type Profile struct {
	// Hubs are the top-K vertices by out-degree.
	Hubs []graph.VertexID
	// ClosestHV[v] is the minimum number of hops from v to any of Hubs
	// following forward edges (-1 if no hub is reachable from v) — the
	// estimated arrival time of v's heavy iterations when v is used as a
	// query source.
	ClosestHV []int32
	// PrepTime is the wall-clock cost of building the profile (paper
	// Table 14's "profiling cost").
	PrepTime time.Duration
}

// NewProfile builds the alignment profile of g using the top-k hubs
// (k <= 0 selects DefaultHubCount).
func NewProfile(g *graph.Graph, k, workers int) *Profile {
	start := time.Now()
	if k <= 0 {
		k = DefaultHubCount
	}
	p := &Profile{Hubs: g.TopOutDegreeVertices(k)}
	// For directed graphs the BFS must run on the edge-reversed graph: we
	// need hops *to* the hub, not from it (paper §3.3). An undirected graph
	// is its own reversal.
	rev := g
	if g.Directed {
		rev = g.Reverse()
	}
	p.ClosestHV = closestHops(rev, p.Hubs, workers)
	p.PrepTime = time.Since(start)
	return p
}

// closestHops is paper Figure 9 lines 5-7: a bfs from every hub over rev —
// hops to the hub, on the graph rev reverses — and, for every vertex, the
// least of them as int32, -1 where no hub is reachable. The hubs' BFSes are
// one len(hubs)-lane batch on Glign-Intra, so they share every edge pass.
func closestHops(rev *graph.Graph, hubs []graph.VertexID, workers int) []int32 {
	closest := make([]int32, rev.NumVertices())
	var res *core.BatchResult
	if len(hubs) > 0 {
		batch := make([]queries.Query, len(hubs))
		for i, h := range hubs {
			batch[i] = queries.Query{Kernel: queries.BFS, Source: h}
		}
		// A monotone batch from vertices of rev cannot be refused.
		res, _ = core.GlignIntra.Run(rev, batch, core.Options{Workers: workers})
	}
	par.For(len(closest), workers, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			best := int32(-1)
			for i := range hubs {
				if d := res.Value(i, graph.VertexID(v)); d != queries.BFS.Identity() && (best < 0 || int32(d) < best) {
					best = int32(d)
				}
			}
			closest[v] = best
		}
	})
	return closest
}

// ArrivalEstimate returns the estimated heavy-iteration arrival time of a
// query starting at src: the least hops to the closest hub, or 0 when no
// hub is reachable (such a query never develops heavy iterations, so it is
// started immediately and excluded from the batch's latest-arrival
// computation).
func (p *Profile) ArrivalEstimate(src graph.VertexID) int {
	if d := p.ClosestHV[src]; d >= 0 {
		return int(d)
	}
	return 0
}

// AlignmentVector computes the alignment vector I for a batch (paper
// Figure 9, lines 8-13): every query is delayed by the difference between
// the batch's latest heavy-iteration arrival and its own, so that all heavy
// iterations land on the same global iteration.
func (p *Profile) AlignmentVector(batch []queries.Query) []int {
	latest := 0
	arrivals := make([]int, len(batch))
	for i, q := range batch {
		arrivals[i] = p.ArrivalEstimate(q.Source)
		if arrivals[i] > latest {
			latest = arrivals[i]
		}
	}
	I := make([]int, len(batch))
	for i := range batch {
		I[i] = latest - arrivals[i]
	}
	return I
}
