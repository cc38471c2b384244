package oracle

import (
	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// GoldenValues computes the trusted serial answer of a query: the
// label-correcting reference for monotone kernels, a serial Jacobi
// iteration for convergence kernels. Everything that "verifies" a result —
// the facade's Report.Verify, the differential harness's oracle leg, the
// serve e2e tests — routes through here so both paradigms have exactly one
// golden path.
func GoldenValues(g *graph.Graph, q queries.Query) []queries.Value {
	if ck, ok := queries.ConvergentOf(q.Kernel); ok {
		return SerialJacobi(g, ck, q.Source)
	}
	return engine.ReferenceRun(g, q)
}

// serialGeom is the prebuilt shape data of a serial Jacobi iteration:
// in-neighbor lists, out-degrees, and gather scratch sized to the widest
// in-neighborhood.
type serialGeom struct {
	ins    [][]graph.VertexID
	outdeg []int32
	nbrs   []queries.Value
	nds    []int32
}

// newSerialGeom materializes the in-neighbor lists the serial Jacobi walks:
// for directed graphs a plain ascending-source scan over the CSR (the same
// order graph.Reverse produces, so the golden floats are bit-identical to
// the engines'), for undirected graphs the adjacency itself.
func newSerialGeom(g *graph.Graph) *serialGeom {
	n := g.NumVertices()
	sg := &serialGeom{ins: make([][]graph.VertexID, n), outdeg: make([]int32, n)}
	if g.Directed {
		indeg := make([]int, n)
		for _, t := range g.Targets {
			indeg[t]++
		}
		for v := 0; v < n; v++ {
			sg.ins[v] = make([]graph.VertexID, 0, indeg[v])
		}
		for u := 0; u < n; u++ {
			for _, t := range g.OutNeighbors(graph.VertexID(u)) {
				sg.ins[t] = append(sg.ins[t], graph.VertexID(u))
			}
		}
	} else {
		for v := 0; v < n; v++ {
			sg.ins[v] = g.OutNeighbors(graph.VertexID(v))
		}
	}
	maxIn := 0
	for v := 0; v < n; v++ {
		sg.outdeg[v] = int32(g.OutDegree(graph.VertexID(v)))
		if len(sg.ins[v]) > maxIn {
			maxIn = len(sg.ins[v])
		}
	}
	sg.nbrs = make([]queries.Value, maxIn)
	sg.nds = make([]int32, maxIn)
	return sg
}

// step applies one synchronous Jacobi round, writing into next and
// returning the max per-vertex residual.
func (sg *serialGeom) step(ck queries.ConvergenceKernel, old, next []queries.Value) float64 {
	n := len(old)
	resid := 0.0
	for v := 0; v < n; v++ {
		us := sg.ins[v]
		for j, u := range us {
			sg.nbrs[j] = old[u]
			sg.nds[j] = sg.outdeg[u]
		}
		next[v] = ck.Step(n, old[v], sg.nbrs[:len(us)], sg.nds[:len(us)])
		resid = queries.MaxResidual(resid, ck.Residual(old[v], next[v]))
	}
	return resid
}

// jacobiStepSerial applies one synchronous Jacobi round to old and returns
// the next vector with the max per-vertex residual — the primitive behind
// the convergence-residual invariant.
func jacobiStepSerial(g *graph.Graph, ck queries.ConvergenceKernel, old []queries.Value) ([]queries.Value, float64) {
	next := make([]queries.Value, len(old))
	resid := newSerialGeom(g).step(ck, old, next)
	return next, resid
}

// SerialJacobi runs the iterate-to-convergence kernel to its fixed point
// with plain nested serial loops — no pool, no lanes — under the same
// stopping rule as the engines (max residual <= Epsilon, or MaxRounds).
// With the in-neighbor order contract this produces the exact floats the
// engines must produce.
func SerialJacobi(g *graph.Graph, ck queries.ConvergenceKernel, src graph.VertexID) []queries.Value {
	n := g.NumVertices()
	sg := newSerialGeom(g)
	old := make([]queries.Value, n)
	next := make([]queries.Value, n)
	for v := 0; v < n; v++ {
		old[v] = ck.InitialValue(n, graph.VertexID(v), src)
	}
	eps := ck.Epsilon()
	for round := 0; round < ck.MaxRounds(); round++ {
		resid := sg.step(ck, old, next)
		old, next = next, old
		if resid <= eps {
			break
		}
	}
	return old
}

// KHopDistances is the golden reachability walk: a serial FIFO BFS from src
// truncated at k hops, returning the hop distance of every vertex (-1
// outside the k-hop set). It shares no code with any engine.
func KHopDistances(g *graph.Graph, src graph.VertexID, k int) []int32 {
	n := g.NumVertices()
	dist := make([]int32, n)
	for v := range dist {
		dist[v] = -1
	}
	if int(src) >= n || k < 0 {
		return dist
	}
	queue := make([]graph.VertexID, 0, n)
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if int(dist[u]) == k {
			continue
		}
		for _, d := range g.OutNeighbors(u) {
			if dist[d] < 0 {
				dist[d] = dist[u] + 1
				queue = append(queue, d)
			}
		}
	}
	return dist
}
