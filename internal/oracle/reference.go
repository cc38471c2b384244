package oracle

import (
	"container/heap"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// ReferenceRun evaluates q with a textbook serial label-correcting worklist
// (a Dijkstra-like priority queue ordered by "Better"), completely
// independent of the frontier/EdgeMap machinery. Tests compare every engine
// against it; it is also the per-query evaluator of the BGL-style
// query-level-parallelism baseline (paper §4.1), which pairs one serial
// evaluation per thread.
func ReferenceRun(g *graph.Graph, q queries.Query) []queries.Value {
	n := g.NumVertices()
	k := q.Kernel
	vals := make([]queries.Value, n)
	for i := range vals {
		vals[i] = k.Identity()
	}
	vals[q.Source] = k.SourceValue()

	pq := &valueHeap{better: k.Better}
	heap.Push(pq, heapItem{v: q.Source, val: vals[q.Source]})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		if it.val != vals[it.v] {
			continue // stale entry
		}
		nbrs, ws := g.OutEdges(it.v)
		for j, d := range nbrs {
			w := graph.Weight(1)
			if ws != nil {
				w = ws[j]
			}
			cand := k.Relax(it.val, w)
			if k.Better(cand, vals[d]) {
				vals[d] = cand
				heap.Push(pq, heapItem{v: d, val: cand})
			}
		}
	}
	return vals
}

type heapItem struct {
	v   graph.VertexID
	val queries.Value
}

// valueHeap orders items so the "best" value pops first; with monotone
// kernels this makes the worklist Dijkstra-like (each vertex settles few
// times).
type valueHeap struct {
	items  []heapItem
	better func(a, b queries.Value) bool
}

func (h *valueHeap) Len() int           { return len(h.items) }
func (h *valueHeap) Less(i, j int) bool { return h.better(h.items[i].val, h.items[j].val) }
func (h *valueHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *valueHeap) Push(x interface{}) { h.items = append(h.items, x.(heapItem)) }
func (h *valueHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
