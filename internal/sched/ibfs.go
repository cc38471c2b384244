package sched

import (
	"slices"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// IBFS implements the query-grouping heuristic of iBFS (Liu et al.,
// SIGMOD'16) as the paper reimplements it for the CPU in §4.8: queries are
// grouped into the same batch when (i) their sources' out-degrees are below
// p, and (ii) the sources share at least one common out-neighbor whose
// out-degree exceeds q. Both bounds derive from the graph: p is
// 2*ceil(avg degree), and q is one below the degree of the graph's
// align.DefaultHubCount-th largest hub, but never below p. Sources failing
// the conditions fall back to arrival order. The grouped batches are then
// evaluated with the two-level (unified + separate frontier) engine, which
// is what iBFS uses.
//
// IBFS is a Policy, so it plugs into the same harness as FCFS and
// affinity-oriented batching; like them, it takes a batch size <= 0 as the
// whole buffer.
type IBFS struct {
	Graph *graph.Graph
	// Telemetry, when non-nil, receives the grouping decision (the ranked
	// order the heuristic chose over the whole buffer).
	Telemetry *telemetry.RunTrace
}

// Name implements Policy.
func (IBFS) Name() string { return "iBFS" }

// MakeBatches implements Policy.
func (h IBFS) MakeBatches(buffer []queries.Query, batchSize int) [][]int {
	groups, rest := h.group(buffer)
	if batchSize <= 0 {
		batchSize = len(buffer)
	}
	var batches [][]int
	var carry []int
	for _, members := range groups {
		// Full batches from the group; the remainder joins the carry pool
		// so partially-filled groups still batch together.
		for len(members) >= batchSize {
			batches = append(batches, members[:batchSize:batchSize])
			members = members[batchSize:]
		}
		carry = append(carry, members...)
	}
	batches = append(batches, chunkIndices(append(carry, rest...), batchSize)...)
	if h.Telemetry != nil {
		order := make([]int, 0, len(buffer))
		for _, b := range batches {
			order = append(order, b...)
		}
		h.Telemetry.RecordDecision(telemetry.BatchingDecision{
			Policy:      h.Name(),
			WindowStart: 0,
			WindowEnd:   len(buffer),
			Order:       order,
		})
	}
	return batches
}

// group splits the buffer's indices into the groups of sources that meet
// both conditions, ordered by the heavy out-neighbor they share and each in
// arrival order, and the rest, in arrival order.
func (h IBFS) group(buffer []queries.Query) (groups [][]int, rest []int) {
	g := h.Graph
	p := 2 * (int(g.AvgDegree()) + 1)
	hubs := g.TopOutDegreeVertices(align.DefaultHubCount)
	q := g.OutDegree(hubs[len(hubs)-1]) - 1
	if q < p {
		q = p
	}

	// For each eligible source, its first heavy out-neighbor keys the
	// group (a source with several heavy neighbors joins the first's
	// group, a greedy simplification of iBFS's pairwise condition: all
	// members of a group share that heavy neighbor).
	byKey := map[graph.VertexID][]int{}
	var keys []graph.VertexID
	for i, query := range buffer {
		src := query.Source
		if g.OutDegree(src) >= p {
			rest = append(rest, i)
			continue
		}
		var key graph.VertexID
		found := false
		for _, d := range g.OutNeighbors(src) {
			if g.OutDegree(d) > q {
				key = d
				found = true
				break
			}
		}
		if !found {
			rest = append(rest, i)
			continue
		}
		if _, ok := byKey[key]; !ok {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], i)
	}
	slices.Sort(keys)
	for _, key := range keys {
		groups = append(groups, byKey[key])
	}
	return groups, rest
}

var _ Policy = IBFS{}
