package oracle

import (
	"fmt"
	"math"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// reverseView returns the graph to walk for in-neighbor scans: the graph
// itself when undirected (every stored arc has its mirror), the full edge
// reversal otherwise.
func reverseView(g *graph.Graph) *graph.Graph {
	if !g.Directed {
		return g
	}
	return g.Reverse()
}

// edgeWeight reads the weight of the j-th out-edge given the parallel
// weight slice (nil on unweighted graphs means weight 1, the same
// convention every engine applies).
func edgeWeight(ws []graph.Weight, j int) graph.Weight {
	if ws == nil {
		return 1
	}
	return ws[j]
}

// sourceValue certifies that the query's source vertex holds exactly the
// kernel's source value — monotone relaxations with the shipped kernels can
// never improve on it, so any drift means an initialization or indexing bug.
type sourceValue struct{}

func (sourceValue) Name() string { return "source-value" }

func (sourceValue) Check(g *graph.Graph, q queries.Query, vals []queries.Value) error {
	if got, want := vals[q.Source], q.Kernel.SourceValue(); got != want {
		return fmt.Errorf("source v%d holds %v, want the kernel source value %v", q.Source, got, want)
	}
	return nil
}

// fixedPoint certifies that no edge can still improve its destination: for
// every edge (u,v) with a non-identity source value,
// !Better(Relax(vals[u], w), vals[v]). For SSSP this is the triangle
// inequality; for every monotone kernel it is the statement that the
// engines actually ran to convergence.
type fixedPoint struct{}

func (fixedPoint) Name() string { return "fixed-point" }

func (fixedPoint) Check(g *graph.Graph, q queries.Query, vals []queries.Value) error {
	k := q.Kernel
	id := k.Identity()
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		sv := vals[v]
		if sv == id {
			continue
		}
		nbrs, ws := g.OutEdges(graph.VertexID(v))
		for j, d := range nbrs {
			cand := k.Relax(sv, edgeWeight(ws, j))
			if k.Better(cand, vals[d]) {
				return fmt.Errorf("edge v%d->v%d can still improve: Relax(%v) = %v is better than vals[v%d] = %v",
					v, d, sv, cand, d, vals[d])
			}
		}
	}
	return nil
}

// supported certifies that every non-identity, non-source value is
// justified by some in-edge: vals[v] == Relax(vals[u], w) for an in-neighbor
// u with a non-identity value. A value better than every justification is a
// corruption no fixed-point check can see (it only looks too good, never
// improvable).
type supported struct{}

func (supported) Name() string { return "supported" }

func (supported) Check(g *graph.Graph, q queries.Query, vals []queries.Value) error {
	k := q.Kernel
	id := k.Identity()
	rev := reverseView(g)
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if v == int(q.Source) || vals[v] == id {
			continue
		}
		us, ws := rev.OutEdges(graph.VertexID(v))
		justified := false
		for j, u := range us {
			if vals[u] != id && k.Relax(vals[u], edgeWeight(ws, j)) == vals[v] {
				justified = true
				break
			}
		}
		if !justified {
			return fmt.Errorf("vals[v%d] = %v is not Relax(vals[u], w) for any in-neighbor u", v, vals[v])
		}
	}
	return nil
}

// bfsLevels certifies the BFS level structure: finite values are
// non-negative integers and level(child) <= level(parent) + 1 across every
// edge (an infinite child of a finite parent is flagged too — reachable
// means leveled).
type bfsLevels struct{}

func (bfsLevels) Name() string { return "bfs-levels" }

func (bfsLevels) Check(g *graph.Graph, q queries.Query, vals []queries.Value) error {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		lv := vals[v]
		if math.IsInf(lv, 1) {
			continue
		}
		if lv < 0 || lv != math.Trunc(lv) {
			return fmt.Errorf("vals[v%d] = %v is not a non-negative integer level", v, lv)
		}
		nbrs, _ := g.OutEdges(graph.VertexID(v))
		for _, d := range nbrs {
			if vals[d] > lv+1 {
				return fmt.Errorf("level(v%d) = %v exceeds level(v%d) + 1 = %v across edge v%d->v%d",
					d, vals[d], v, lv+1, v, d)
			}
		}
	}
	return nil
}

// ssspTriangle certifies the shortest-path triangle inequality over every
// edge — dist(v) <= dist(u) + w(u,v) — and that finite distances are
// non-negative (weights are positive by construction).
type ssspTriangle struct{}

func (ssspTriangle) Name() string { return "sssp-triangle" }

func (ssspTriangle) Check(g *graph.Graph, q queries.Query, vals []queries.Value) error {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		dv := vals[v]
		if math.IsInf(dv, 1) {
			continue
		}
		if dv < 0 {
			return fmt.Errorf("vals[v%d] = %v is a negative distance", v, dv)
		}
		nbrs, ws := g.OutEdges(graph.VertexID(v))
		for j, d := range nbrs {
			bound := dv + queries.Value(edgeWeight(ws, j))
			if vals[d] > bound {
				return fmt.Errorf("dist(v%d) = %v violates the triangle inequality via v%d: bound %v",
					d, vals[d], v, bound)
			}
		}
	}
	return nil
}

// khopRange certifies the value shape of a k-hop result: finite values are
// integer hop counts within [0, k].
type khopRange struct{ k int }

func (khopRange) Name() string { return "khop-range" }

func (i khopRange) Check(g *graph.Graph, q queries.Query, vals []queries.Value) error {
	for v, hv := range vals {
		if math.IsInf(hv, 1) {
			continue
		}
		if hv < 0 || hv > queries.Value(i.k) || hv != math.Trunc(hv) {
			return fmt.Errorf("vals[v%d] = %v is not an integer hop count in [0, %d]", v, hv, i.k)
		}
	}
	return nil
}

// khopReach certifies the reachability set against an independent golden
// walk: a serial FIFO BFS truncated at k hops must agree with the result
// vector on both membership and hop distance for every vertex.
type khopReach struct{ k int }

func (khopReach) Name() string { return "khop-reach" }

func (i khopReach) Check(g *graph.Graph, q queries.Query, vals []queries.Value) error {
	dist := KHopDistances(g, q.Source, i.k)
	for v, d := range dist {
		if d < 0 {
			if !math.IsInf(vals[v], 1) {
				return fmt.Errorf("v%d is outside the %d-hop set of v%d but holds %v", v, i.k, q.Source, vals[v])
			}
			continue
		}
		if vals[v] != queries.Value(d) {
			return fmt.Errorf("v%d is %d hops from v%d but holds %v", v, d, q.Source, vals[v])
		}
	}
	return nil
}

// convergenceResidual certifies that a convergence result is a settled
// fixed point: one more serial Jacobi step moves no vertex by more than the
// kernel's epsilon. Any single corrupted cell either moves itself back
// (its recomputation disagrees) or moves its out-neighbors — both exceed
// epsilon by orders of magnitude on real results.
type convergenceResidual struct{}

func (convergenceResidual) Name() string { return "convergence-residual" }

func (convergenceResidual) Check(g *graph.Graph, q queries.Query, vals []queries.Value) error {
	ck, ok := queries.ConvergentOf(q.Kernel)
	if !ok {
		return fmt.Errorf("kernel %s is not a convergence kernel", q.Kernel.Name())
	}
	_, resid := jacobiStepSerial(g, ck, vals)
	if !(resid <= ck.Epsilon()) { // a NaN residual settles nothing
		return fmt.Errorf("one more Jacobi step still moves a vertex by %g (> epsilon %g): not a settled fixed point",
			resid, ck.Epsilon())
	}
	return nil
}

// pagerankDamping mirrors the kernel's damping factor. The duplication is
// deliberate: the oracle codifies the published contract independently, so
// a drive-by change to the kernel's constant fails here and must touch both
// sites on purpose.
const pagerankDamping = 0.85

// pagerankMass certifies PageRank's mass accounting: every rank is at
// least the teleport share (1-d)/n and at most 1, and the vector sums to at
// most 1 (dangling vertices leak mass rather than redistributing it, per
// the kernel's documented contract).
type pagerankMass struct{}

func (pagerankMass) Name() string { return "pagerank-mass" }

func (pagerankMass) Check(g *graph.Graph, q queries.Query, vals []queries.Value) error {
	n := g.NumVertices()
	low := (1 - pagerankDamping) / float64(n)
	const tol = 1e-9
	sum := 0.0
	for v, pv := range vals {
		if pv < low-tol || pv > 1+tol {
			return fmt.Errorf("rank(v%d) = %v outside [(1-d)/n = %g, 1]", v, pv, low)
		}
		sum += pv
	}
	if sum > 1+1e-6 {
		return fmt.Errorf("rank vector sums to %v > 1: mass created from nothing", sum)
	}
	return nil
}

// labelpropValid certifies min-label propagation's value shape: every label
// is an integer vertex id no larger than the vertex's own id (a vertex can
// only ever adopt a smaller id than its initial own).
type labelpropValid struct{}

func (labelpropValid) Name() string { return "labelprop-valid" }

func (labelpropValid) Check(g *graph.Graph, q queries.Query, vals []queries.Value) error {
	for v, lv := range vals {
		if lv < 0 || lv > queries.Value(v) || lv != math.Trunc(lv) {
			return fmt.Errorf("label(v%d) = %v is not an integer vertex id in [0, %d]", v, lv, v)
		}
	}
	return nil
}
