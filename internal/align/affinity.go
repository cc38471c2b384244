package align

import (
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// Trace is the per-iteration frontier history of one query evaluated
// independently — the raw material of the affinity metric and of the
// ground-truth alignment study.
type Trace struct {
	Query queries.Query
	// Frontiers[j] is the frontier entering (local) iteration j.
	Frontiers []*frontier.Subset
	// Sizes[j] == Frontiers[j].Count(), precomputed.
	Sizes []int
	// EdgeSizes[j] is the total out-degree of Frontiers[j] (the "active
	// edges" of the paper's alternative edge-based affinity).
	EdgeSizes []int64
}

// TraceQuery evaluates q on g and records its frontier history
// (core.Frontiers). q must be a monotone query whose source is a vertex of g:
// anything else has no frontier to trace, and TraceQuery panics.
func TraceQuery(g *graph.Graph, q queries.Query, workers int) *Trace {
	frontiers, err := core.Frontiers(g, q, workers)
	if err != nil {
		panic(err)
	}
	tr := &Trace{Query: q, Frontiers: frontiers}
	tr.Sizes = make([]int, len(frontiers))
	tr.EdgeSizes = make([]int64, len(frontiers))
	for j, f := range frontiers {
		var sum int64
		f.ForEach(func(v graph.VertexID) { sum += int64(g.OutDegree(v)) })
		tr.Sizes[j], tr.EdgeSizes[j] = f.Count(), sum
	}
	return tr
}

// TraceBatch traces every query of a batch independently.
func TraceBatch(g *graph.Graph, batch []queries.Query, workers int) []*Trace {
	traces := make([]*Trace, len(batch))
	for i, q := range batch {
		traces[i] = TraceQuery(g, q, workers)
	}
	return traces
}

// HeavyArrivalFromTrace returns the first local iteration at which any of
// hubs appears in the trace's frontier, or -1 if none ever does. For
// frontier-propagating monotone kernels this equals the hop distance from
// the query source to the nearest hub — the correlation Glign's heuristic
// rests on (paper Table 4).
func HeavyArrivalFromTrace(tr *Trace, hubs []graph.VertexID) int {
	for j, f := range tr.Frontiers {
		for _, h := range hubs {
			if f.Contains(h) {
				return j
			}
		}
	}
	return -1
}

// Affinity computes the vertex-based affinity of Definition 3.4 for a batch
// whose queries' frontier histories are traces, evaluated under alignment
// vector I (I[i] = global iteration at which query i starts):
//
//	Affinity = 1 - Σ_j |Frontier_union^j| / Σ_j Σ_i |Frontier_i^j|
//
// The best affinity, approached when the separate frontiers perfectly
// overlap, is 1 - 1/B; the metric is 0 when no frontiers ever overlap (and
// exactly 0 for a single-query batch, whose union is its own frontier).
func Affinity(traces []*Trace, I []int) float64 {
	unionSum, sepSum := affinitySums(traces, I, false, nil)
	if sepSum == 0 {
		return 0
	}
	return 1 - float64(unionSum)/float64(sepSum)
}

// AffinityEdges is the edge-based variant (§3.3 "alternatively"): frontier
// sizes are weighted by out-degree, i.e. the number of active edges.
func AffinityEdges(traces []*Trace, I []int, g *graph.Graph) float64 {
	unionSum, sepSum := affinitySums(traces, I, true, g)
	if sepSum == 0 {
		return 0
	}
	return 1 - float64(unionSum)/float64(sepSum)
}

// affinitySums computes Σ|union| and ΣΣ|separate| over all global
// iterations, in vertices (edgeBased=false) or active out-edges.
func affinitySums(traces []*Trace, I []int, edgeBased bool, g *graph.Graph) (int64, int64) {
	if len(traces) == 0 {
		return 0, 0
	}
	n := traces[0].Frontiers[0].Universe()
	K := 0
	for i, tr := range traces {
		if end := I[i] + len(tr.Frontiers); end > K {
			K = end
		}
	}
	var unionSum, sepSum int64
	union := frontier.New(n)
	for j := 0; j < K; j++ {
		union.Clear()
		liveCount := 0
		var only int64 // the size of the last live frontier
		for i, tr := range traces {
			lj := j - I[i]
			if lj < 0 || lj >= len(tr.Frontiers) {
				continue
			}
			liveCount++
			if edgeBased {
				only = tr.EdgeSizes[lj]
			} else {
				only = int64(tr.Sizes[lj])
			}
			sepSum += only
		}
		switch {
		case liveCount == 0:
			continue
		case liveCount == 1:
			// Fast path: union equals the single live frontier.
			unionSum += only
		default:
			for i, tr := range traces {
				lj := j - I[i]
				if lj < 0 || lj >= len(tr.Frontiers) {
					continue
				}
				union.UnionWith(tr.Frontiers[lj])
			}
			if edgeBased {
				var sum int64
				union.ForEach(func(v graph.VertexID) { sum += int64(g.OutDegree(v)) })
				unionSum += sum
			} else {
				unionSum += int64(union.Count())
			}
		}
	}
	return unionSum, sepSum
}
