package graph

import (
	"fmt"
	"sort"
)

// Edge is a single directed, optionally weighted edge used while building a
// graph. Weight 0 is normalized to 1 at build time so that generators may
// leave it unset for unweighted inputs (the file loaders reject an explicit
// 0, see ReadEdgeList).
type Edge struct {
	Src, Dst VertexID
	W        Weight
}

// Builder accumulates edges and produces an immutable CSR Graph. It is not
// safe for concurrent use; build graphs up front and share the immutable
// result.
type Builder struct {
	n        int
	directed bool
	weighted bool
	edges    []Edge
	name     string
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int, directed, weighted bool) *Builder {
	return &Builder{n: n, directed: directed, weighted: weighted}
}

// SetName sets the label of the resulting graph.
func (b *Builder) SetName(name string) *Builder { b.name = name; return b }

// AddEdge records the edge u->v with weight w. For undirected builders the
// symmetric arc is added automatically at Build time. Out-of-range endpoints
// cause Build to fail.
func (b *Builder) AddEdge(u, v VertexID, w Weight) {
	b.edges = append(b.edges, Edge{Src: u, Dst: v, W: w})
}

// NumPendingEdges returns the number of edges recorded so far (before
// symmetrization or deduplication).
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build finalizes the CSR graph. Duplicate arcs are collapsed (keeping the
// smallest weight, the only duplicate-resolution under which every monotone
// kernel computes the same fixed point as with multi-edges); self-loops are
// dropped. Neighbor lists are sorted by target id for deterministic
// traversal order.
func (b *Builder) Build() (*Graph, error) {
	edges := b.edges
	if !b.directed {
		sym := make([]Edge, 0, 2*len(edges))
		for _, e := range edges {
			sym = append(sym, e, Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
		edges = sym
	}
	for i := range edges {
		e := &edges[i]
		if int(e.Src) >= b.n || int(e.Dst) >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.Src, e.Dst, b.n)
		}
		if e.W == 0 {
			e.W = 1
		}
	}
	// Drop self loops.
	filtered := edges[:0]
	for _, e := range edges {
		if e.Src != e.Dst {
			filtered = append(filtered, e)
		}
	}
	edges = filtered

	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		if edges[i].Dst != edges[j].Dst {
			return edges[i].Dst < edges[j].Dst
		}
		return edges[i].W < edges[j].W
	})
	// Deduplicate (src,dst), keeping the first (smallest weight).
	dedup := edges[:0]
	for i, e := range edges {
		if i > 0 && e.Src == edges[i-1].Src && e.Dst == edges[i-1].Dst {
			continue
		}
		dedup = append(dedup, e)
	}
	edges = dedup

	offsets := make([]uint32, b.n+1)
	for _, e := range edges {
		offsets[e.Src+1]++
	}
	for i := 1; i <= b.n; i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]VertexID, len(edges))
	var weights []Weight
	if b.weighted {
		weights = make([]Weight, len(edges))
	}
	for i, e := range edges {
		targets[i] = e.Dst
		if b.weighted {
			weights[i] = e.W
		}
	}
	g := &Graph{
		Offsets:  offsets,
		Targets:  targets,
		Weights:  weights,
		Directed: b.directed,
		Name:     b.name,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustBuild is Build that panics on error, for tests and generators whose
// inputs are in-range by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges is a convenience constructor building a graph directly from an
// edge slice.
func FromEdges(n int, directed, weighted bool, edges []Edge) (*Graph, error) {
	b := NewBuilder(n, directed, weighted)
	b.edges = append(b.edges, edges...)
	return b.Build()
}
