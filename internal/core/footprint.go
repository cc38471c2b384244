package core

import (
	"github.com/glign/glign/internal/graph"
)

// Footprint is the memory breakdown of paper Table 11: the resident sizes
// of the three major structures of a concurrent evaluation. Only the
// frontier component — every structure that says what is active, bitmaps and
// per-vertex masks alike — differs across designs. The bitmaps are scanned in
// full every global iteration, which is why their size drives LLC behaviour
// far beyond its share of total memory; a mask is touched only at active
// vertices and improved destinations.
type Footprint struct {
	Method        string
	GraphBytes    int64
	ValueBytes    int64
	FrontierBytes int64
}

// Total returns the sum of the components.
func (f Footprint) Total() int64 { return f.GraphBytes + f.ValueBytes + f.FrontierBytes }

// frontierBitmapBytes is the size of one frontier bitmap over n vertices.
func frontierBitmapBytes(n int) int64 { return int64((n + 63) / 64 * 8) }

// FootprintOf computes the memory breakdown of evaluating a batch of b
// queries on g with the named engine. Engines are identified by Name().
func FootprintOf(e Engine, g *graph.Graph, b int) Footprint {
	n := g.NumVertices()
	f := Footprint{
		Method:     e.Name(),
		GraphBytes: g.MemoryFootprintBytes(),
		ValueBytes: int64(n) * int64(b) * 8,
	}
	one := frontierBitmapBytes(n)
	switch e.Name() {
	case "Ligra-S":
		// One frontier pair for the single in-flight query.
		f.ValueBytes = int64(n) * 8 // only one query resident at a time
		f.FrontierBytes = 2 * one
	case "Ligra-C":
		// Unified frontier pair + B separate frontier pairs.
		f.FrontierBytes = 2*one + int64(2*b)*one
	case "Krill":
		// Unified frontier pair + per-vertex query-mask pair.
		f.FrontierBytes = 2*one + 2*int64(n)*8
	default:
		// Query-oblivious designs: a single unified frontier pair, and the
		// one changed-lane mask (laneMask) — a word per vertex per 64 queries.
		f.FrontierBytes = 2*one + int64(n)*int64((b+63)/64)*8
	}
	return f
}
