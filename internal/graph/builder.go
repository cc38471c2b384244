package graph

import (
	"fmt"
	"math"
	"slices"
)

// Edge is a single directed, optionally weighted edge used while building a
// graph. Weight 0 is normalized to 1 at build time so that generators may
// leave it unset for unweighted inputs (the file loaders reject an explicit
// 0, see ReadEdgeList); any other weight that is not >= 1 (NaN included)
// fails the build, as every query kernel relies on it (see Weight).
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
// and a weight other than 0 that is not >= 1 cause Build to fail.
func (b *Builder) AddEdge(u, v VertexID, w Weight) {
	b.edges = append(b.edges, Edge{Src: u, Dst: v, W: w})
}

// Build finalizes the CSR graph. Duplicate arcs are collapsed (keeping the
// smallest weight, the only duplicate-resolution under which every monotone
// kernel computes the same fixed point as with multi-edges); self-loops are
// dropped. Neighbor lists are sorted by target id for deterministic
// traversal order.
//
// The arcs are laid out by a counting sort on the source, which is the CSR
// layout itself, and each source's arcs are then sorted by (target, weight):
// the order a comparison sort of all arcs by (source, target, weight) gives,
// in time linear in the arcs plus the per-source sorts.
func (b *Builder) Build() (*Graph, error) {
	// Check every edge and count each source's arcs: an undirected edge
	// contributes the mirrored arc too, a self-loop nothing.
	offsets := make([]uint32, b.n+1)
	for _, e := range b.edges {
		if int(e.Src) >= b.n || int(e.Dst) >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.Src, e.Dst, b.n)
		}
		if w := normWeight(e.W); !(w >= 1) {
			return nil, fmt.Errorf("graph: edge (%d,%d) weight %v, want >= 1", e.Src, e.Dst, w)
		}
		if e.Src == e.Dst {
			continue
		}
		offsets[e.Src+1]++
		if !b.directed {
			offsets[e.Dst+1]++
		}
	}
	for i := 1; i <= b.n; i++ {
		offsets[i] += offsets[i-1]
	}
	// Scatter each arc into its source's range as one key that sorts by
	// (target, weight): the target in the high word, the weight's bits in
	// the low one, which order like the weights themselves since every
	// weight is positive.
	keys := make([]uint64, offsets[b.n])
	next := append([]uint32(nil), offsets[:b.n]...)
	place := func(src, dst VertexID, w Weight) {
		keys[next[src]] = uint64(dst)<<32 | uint64(math.Float32bits(w))
		next[src]++
	}
	for _, e := range b.edges {
		if e.Src == e.Dst {
			continue
		}
		w := normWeight(e.W)
		place(e.Src, e.Dst, w)
		if !b.directed {
			place(e.Dst, e.Src, w)
		}
	}
	// Sort each source's arcs and keep the first arc to each target, the
	// smallest-weight one, compacting the kept keys to the front of keys
	// and rewriting offsets to the kept ranges.
	kept := uint32(0)
	for v := 0; v < b.n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		offsets[v] = kept
		arcs := keys[lo:hi]
		slices.Sort(arcs)
		for i, k := range arcs {
			if i > 0 && k>>32 == arcs[i-1]>>32 {
				continue
			}
			keys[kept] = k
			kept++
		}
	}
	offsets[b.n] = kept
	keys = keys[:kept]

	targets := make([]VertexID, len(keys))
	var weights []Weight
	if b.weighted {
		weights = make([]Weight, len(keys))
	}
	for i, k := range keys {
		targets[i] = VertexID(k >> 32)
		if b.weighted {
			weights[i] = math.Float32frombits(uint32(k))
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

// normWeight is the weight Build stores for w: 0 (unset) becomes 1.
func normWeight(w Weight) Weight {
	if w == 0 {
		return 1
	}
	return w
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
