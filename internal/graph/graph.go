package graph

import (
	"errors"
	"fmt"
	"sort"
)

// VertexID identifies a vertex. Vertices are densely numbered from 0.
type VertexID = uint32

// Weight is the type of edge weights. All generators produce weights >= 1
// and the file loaders reject anything else, because every query kernel in
// internal/queries relies on it (e.g. Viterbi's division keeps values
// monotone only for weights >= 1).
type Weight = float32

// Graph is an immutable CSR graph. The zero value is an empty graph.
//
// For an undirected graph every edge {u,v} is stored twice (u->v and v->u),
// matching the convention of Ligra and of the adjacency-list inputs the
// original Glign artifact consumes.
type Graph struct {
	// Offsets has length NumVertices()+1; out-edges of v occupy
	// Targets[Offsets[v]:Offsets[v+1]].
	Offsets []uint32
	// Targets holds the destination of every edge, grouped by source.
	Targets []VertexID
	// Weights holds the per-edge weight, parallel to Targets. It is nil for
	// unweighted graphs; Weight accessors then report 1.
	Weights []Weight
	// Directed records whether the edge set is directed. Undirected graphs
	// are stored symmetrized.
	Directed bool
	// Name is an optional human-readable label ("LJ-sim", ...).
	Name string
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.Offsets) == 0 {
		return 0
	}
	return len(g.Offsets) - 1
}

// NumEdges returns the number of stored directed edges (an undirected graph
// reports twice its logical edge count, as both arcs are materialized).
func (g *Graph) NumEdges() int { return len(g.Targets) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// OutNeighbors returns the slice of out-neighbors of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.Targets[g.Offsets[v]:g.Offsets[v+1]]
}

// OutEdges returns the out-neighbors of v and their weights. The weight
// slice is nil for unweighted graphs.
func (g *Graph) OutEdges(v VertexID) ([]VertexID, []Weight) {
	lo, hi := g.Offsets[v], g.Offsets[v+1]
	if g.Weights == nil {
		return g.Targets[lo:hi], nil
	}
	return g.Targets[lo:hi], g.Weights[lo:hi]
}

// EdgeWeight returns the weight of the i-th stored edge (1 for unweighted
// graphs).
func (g *Graph) EdgeWeight(i uint32) Weight {
	if g.Weights == nil {
		return 1
	}
	return g.Weights[i]
}

// Weighted reports whether the graph carries per-edge weights.
func (g *Graph) Weighted() bool { return g.Weights != nil }

// AvgDegree returns the average out-degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// MaxOutDegree returns the maximum out-degree and one vertex attaining it.
func (g *Graph) MaxOutDegree() (VertexID, int) {
	best, bestDeg := VertexID(0), -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(VertexID(v)); d > bestDeg {
			best, bestDeg = VertexID(v), d
		}
	}
	if bestDeg < 0 {
		bestDeg = 0
	}
	return best, bestDeg
}

// TopOutDegreeVertices returns the k vertices with the highest out-degree,
// in decreasing degree order (ties broken by lower vertex id). These are the
// "high-degree vertices" (HV) that Glign's inter-iteration alignment probes
// with reverse BFS (paper Figure 9, line 2).
func (g *Graph) TopOutDegreeVertices(k int) []VertexID {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	ids := make([]VertexID, n)
	for i := range ids {
		ids[i] = VertexID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := g.OutDegree(ids[a]), g.OutDegree(ids[b])
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	return append([]VertexID(nil), ids[:k]...)
}

// Reverse returns the edge-reversed graph: an edge u->v becomes v->u,
// carrying its weight. For undirected graphs the reverse equals the original
// (a fresh copy is still returned so callers may retain it independently).
// Glign runs hub BFS on the reversed graph to obtain, for every vertex, the
// least number of hops *to* each hub (paper Figure 9, line 3).
func (g *Graph) Reverse() *Graph {
	n := g.NumVertices()
	counts := make([]uint32, n+1)
	for _, t := range g.Targets {
		counts[t+1]++
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	offsets := counts
	targets := make([]VertexID, len(g.Targets))
	var weights []Weight
	if g.Weights != nil {
		weights = make([]Weight, len(g.Weights))
	}
	next := make([]uint32, n)
	copy(next, offsets[:n])
	for u := 0; u < n; u++ {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		for i := lo; i < hi; i++ {
			t := g.Targets[i]
			pos := next[t]
			next[t]++
			targets[pos] = VertexID(u)
			if weights != nil {
				weights[pos] = g.Weights[i]
			}
		}
	}
	return &Graph{
		Offsets:  offsets,
		Targets:  targets,
		Weights:  weights,
		Directed: g.Directed,
		Name:     g.Name + "-rev",
	}
}

// Validate checks structural invariants: monotone offsets, targets in range,
// and weight slice length. It returns a descriptive error on the first
// violation.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.Offsets) == 0 {
		if len(g.Targets) != 0 {
			return errors.New("graph: targets present with empty offsets")
		}
		return nil
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.Offsets[0])
	}
	for v := 0; v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	if int(g.Offsets[n]) != len(g.Targets) {
		return fmt.Errorf("graph: offsets[n]=%d != len(targets)=%d", g.Offsets[n], len(g.Targets))
	}
	for i, t := range g.Targets {
		if int(t) >= n {
			return fmt.Errorf("graph: edge %d targets out-of-range vertex %d (n=%d)", i, t, n)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Targets) {
		return fmt.Errorf("graph: len(weights)=%d != len(targets)=%d", len(g.Weights), len(g.Targets))
	}
	return nil
}

// MemoryFootprintBytes returns the approximate resident size of the graph
// topology (offsets + targets + weights), used by the Table 11 footprint
// experiment.
func (g *Graph) MemoryFootprintBytes() int64 {
	b := int64(len(g.Offsets)) * 4
	b += int64(len(g.Targets)) * 4
	if g.Weights != nil {
		b += int64(len(g.Weights)) * 4
	}
	return b
}

// String summarizes the graph.
func (g *Graph) String() string {
	kind := "undirected"
	if g.Directed {
		kind = "directed"
	}
	w := "unweighted"
	if g.Weighted() {
		w = "weighted"
	}
	name := g.Name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s{%s %s |V|=%d |E|=%d avg-deg=%.2f}",
		name, kind, w, g.NumVertices(), g.NumEdges(), g.AvgDegree())
}
