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

// Profile is the per-graph precompute of paper Figure 9 (lines 1-5): the
// top-K high-out-degree vertices, the least hop count from every vertex to
// each hub (computed by BFS on the edge-reversed graph), and the derived
// closestHV array. It is built once when a graph is loaded and shared by
// inter-iteration alignment and affinity-oriented batching.
type Profile struct {
	// Hubs are the top-K vertices by out-degree.
	Hubs []graph.VertexID
	// LeastHops[h][v] is the minimum number of hops from v to Hubs[h]
	// following forward edges (-1 if the hub is unreachable from v).
	LeastHops [][]int32
	// ClosestHV[v] is min over hubs of LeastHops[h][v] (-1 if no hub is
	// reachable from v) — the estimated arrival time of v's heavy
	// iterations when v is used as a query source.
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
	n := g.NumVertices()
	p.LeastHops = make([][]int32, len(p.Hubs))
	for hi, h := range p.Hubs {
		p.LeastHops[hi] = leastHops(rev, h, workers)
	}
	p.ClosestHV = make([]int32, n)
	for v := 0; v < n; v++ {
		best := int32(-1)
		for hi := range p.Hubs {
			if d := p.LeastHops[hi][v]; d >= 0 && (best < 0 || d < best) {
				best = d
			}
		}
		p.ClosestHV[v] = best
	}
	p.PrepTime = time.Since(start)
	return p
}

// leastHops is paper Figure 9 line 5's bfs: the hop count from hub to every
// vertex of rev — to the hub, on the graph rev reverses — as int32, -1 where
// there is no path. It is a one-query BFS batch on Glign-Intra.
func leastHops(rev *graph.Graph, hub graph.VertexID, workers int) []int32 {
	// A one-query monotone batch from a vertex of rev cannot be refused.
	res, _ := core.GlignIntra.Run(rev, []queries.Query{{Kernel: queries.BFS, Source: hub}}, core.Options{Workers: workers})
	hops := make([]int32, res.N)
	par.For(res.N, workers, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			hops[v] = -1
			if d := res.Value(0, graph.VertexID(v)); d != queries.BFS.Identity() {
				hops[v] = int32(d)
			}
		}
	})
	return hops
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
