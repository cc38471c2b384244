package queries

import (
	"fmt"
	"math"

	"github.com/glign/glign/internal/graph"
)

// ConvergenceKernel is the iterate-to-convergence (Jacobi) counterpart of the
// monotone push-model Kernel. Where monotone kernels relax values one edge at
// a time under the CAS "write if better" protocol, a convergence kernel
// recomputes every vertex each round from the previous round's values of its
// in-neighbors, and a lane finishes when its maximum per-vertex residual
// drops to Epsilon (or the round cap hits). There is no monotone shortcut:
// values may move in either direction between rounds, so engines must
// double-buffer what a round reads instead of CAS-improving in place.
//
// A ConvergenceKernel still embeds Kernel so it rides in a Query unchanged
// (Name feeds telemetry and the computation Key; Identity feeds facade
// reachability accounting). Its Relax and Better panic: routing a
// convergence kernel into a monotone relaxation path is an engine bug, never
// a recoverable state.
//
// Determinism contract: Step must fold nbrs in slice order. Engines present
// in-neighbors in reverse-CSR order (ascending source vertex), which is the
// same for every worker count and every batch width, so a kernel that honors
// the contract produces bit-identical float values whichever lanes it shares
// a batch with. A built-in kernel with a fused form (KindOf not OpCustom:
// PageRank) is evaluated by a round that never calls Step or Residual; that
// round is held to them bit for bit — the same IEEE operations on the same
// operands, folded in the same order — and tested against the serial golden,
// which calls Step.
type ConvergenceKernel interface {
	Kernel
	// InitialValue is the round-0 value of vertex v for a query rooted at
	// src on an n-vertex graph.
	InitialValue(n int, v, src graph.VertexID) Value
	// Step computes the next value of a vertex from its previous value, the
	// previous values of its in-neighbors (nbrs, in reverse-CSR order) and
	// those in-neighbors' out-degrees (degs, parallel to nbrs).
	Step(n int, self Value, nbrs []Value, degs []int32) Value
	// Residual measures the per-vertex round-over-round change; engines
	// take the maximum over vertices (MaxResidual: order-independent, unlike
	// a sum, so the convergence decision is deterministic across worker
	// counts).
	Residual(old, next Value) float64
	// Epsilon is the max-residual convergence threshold.
	Epsilon() float64
	// MaxRounds caps the rounds of one lane (a safety net; the shipped
	// kernels converge well before it on every generated dataset).
	MaxRounds() int
}

// MaxResidual folds the residual r of one vertex into acc, the maximum so
// far. A NaN is greater than everything and stays, so a lane whose values
// went NaN never reaches its Epsilon: it runs to its round cap and is not
// reported converged.
func MaxResidual(acc, r float64) float64 {
	if r > acc || r != r {
		return r
	}
	return acc
}

// pagerank: the canonical non-monotone kernel. Jacobi iteration of
// PR(v) = (1-d)/n + d * sum over in-neighbors u of PR(u)/outdeg(u),
// damping d = 0.85, uniform 1/n start. The source vertex is ignored — the
// ranking is a whole-graph property — and the kernel declares so (sourceFree),
// so KeyOf gives every PageRank query the same key and batch layers evaluate
// one of them per graph snapshot, whatever the sources. Dangling vertices
// (outdeg 0) leak their mass rather than redistributing it, so the vector
// sums to at most 1; the oracle invariants encode exactly that contract.
type pagerank struct{}

const (
	pagerankDamping   = 0.85
	pagerankEpsilon   = 1e-8
	pagerankMaxRounds = 1000
)

func (pagerank) Name() string { return "PageRank" }
func (pagerank) sourceFree()  {}

// Identity exists only to satisfy Kernel (facade reachability accounting
// treats every vertex as reached: a rank is defined for all vertices). No
// computed rank can equal +Inf.
func (pagerank) Identity() Value    { return math.Inf(1) }
func (pagerank) SourceValue() Value { return 0 }
func (pagerank) Relax(Value, graph.Weight) Value {
	panic("queries: PageRank is a convergence kernel; it has no monotone Relax")
}
func (pagerank) Better(Value, Value) bool {
	panic("queries: PageRank is a convergence kernel; it has no monotone Better")
}

func (pagerank) InitialValue(n int, _, _ graph.VertexID) Value {
	return 1 / Value(n)
}

func (pagerank) Step(n int, _ Value, nbrs []Value, degs []int32) Value {
	sum := Value(0)
	for j, pv := range nbrs {
		// Generated graphs never emit an edge out of a zero-out-degree
		// vertex, so degs[j] >= 1 whenever u appears as an in-neighbor.
		sum += pv / Value(degs[j])
	}
	return PageRankFinish(PageRankTeleport(n), sum)
}

// PageRankTeleport is the part of every rank on an n-vertex graph that does
// not come from in-neighbors, (1-d)/n.
func PageRankTeleport(n int) Value { return (1 - pagerankDamping) / Value(n) }

// PageRankFinish is the rank PageRank's Step gives a vertex whose
// in-neighbors' shares — previous rank over out-degree, added in reverse-CSR
// order from zero — sum to sum; teleport is PageRankTeleport of the graph's
// vertex count. An engine that adds the shares itself finishes here, so its
// ranks are Step's.
func PageRankFinish(teleport, sum Value) Value { return teleport + pagerankDamping*sum }

func (pagerank) Residual(old, next Value) float64 { return math.Abs(next - old) }
func (pagerank) Epsilon() float64                 { return pagerankEpsilon }
func (pagerank) MaxRounds() int                   { return pagerankMaxRounds }

// labelprop: min-label propagation, the deterministic core of
// label-propagation community detection. Every vertex starts with its own id
// as label and each round adopts the minimum over its previous label and its
// in-neighbors' previous labels. The fixed point labels every vertex with
// the smallest vertex id that reaches it — a components-style certificate —
// and unlike frequency-based label propagation it cannot oscillate, so the
// convergence decision stays deterministic. The source vertex is ignored
// (labels are a whole-graph property) and, as for PageRank, the kernel
// declares it source-free, so every LabelProp query shares one key.
type labelprop struct{}

const labelpropMaxRounds = 1 << 14

func (labelprop) Name() string { return "LabelProp" }
func (labelprop) sourceFree()  {}

// Identity satisfies Kernel only; every vertex always holds a label, so no
// value ever equals +Inf and facade reachability counts all vertices.
func (labelprop) Identity() Value    { return math.Inf(1) }
func (labelprop) SourceValue() Value { return 0 }
func (labelprop) Relax(Value, graph.Weight) Value {
	panic("queries: LabelProp is a convergence kernel; it has no monotone Relax")
}
func (labelprop) Better(Value, Value) bool {
	panic("queries: LabelProp is a convergence kernel; it has no monotone Better")
}

func (labelprop) InitialValue(_ int, v, _ graph.VertexID) Value {
	return Value(v)
}

func (labelprop) Step(_ int, self Value, nbrs []Value, _ []int32) Value {
	min := self
	for _, l := range nbrs {
		if l < min {
			min = l
		}
	}
	return min
}

func (labelprop) Residual(old, next Value) float64 {
	if old == next {
		return 0
	}
	return 1
}
func (labelprop) Epsilon() float64 { return 0.5 }
func (labelprop) MaxRounds() int   { return labelpropMaxRounds }

// khop: bounded-depth reachability as a monotone kernel. Values are hop
// counts like BFS, but any relaxation that would exceed the depth bound
// proposes Identity (+Inf), so the traversal self-truncates at k hops and
// the final values certify the k-hop reachability set (value <= k iff
// reachable within k hops). Unlike BFS/SSSP it has no fused OpKind fast
// path, so it exercises every engine's OpCustom interface-dispatch route.
type khop struct{ k int }

func (h khop) Name() string     { return fmt.Sprintf("KHOP%d", h.k) }
func (khop) Identity() Value    { return math.Inf(1) }
func (khop) SourceValue() Value { return 0 }
func (h khop) Relax(src Value, _ graph.Weight) Value {
	next := src + 1
	if next > Value(h.k) {
		return math.Inf(1)
	}
	return next
}
func (khop) Better(a, b Value) bool { return a < b }

// HopBound exposes the depth bound so validity oracles can certify the
// reachability set without parsing the kernel name.
func (h khop) HopBound() int { return h.k }

// DefaultKHopDepth is the hop bound of the KHop representative in Monotone()
// and of workload buffers that name the kernel without a depth.
const DefaultKHopDepth = 3

// KHop returns the k-bounded reachability kernel (k >= 0; KHop(0) reaches
// only the source).
func KHop(k int) Kernel { return khop{k: k} }

// Singleton convergence kernels.
var (
	PageRank  ConvergenceKernel = pagerank{}
	LabelProp ConvergenceKernel = labelprop{}
)

// Monotone returns one representative of every monotone push-model kernel:
// the five paper kernels plus bounded-depth reachability. No kernel listed
// here may implement ConvergenceKernel (TestParadigmClassification):
// engines route a batch by that interface (AnyConvergent), so one that did
// would be evaluated by Jacobi rounds instead of a frontier traversal.
func Monotone() []Kernel {
	return []Kernel{BFS, SSSP, SSWP, Viterbi, SSNP, KHop(DefaultKHopDepth)}
}

// Convergent returns the iterate-to-convergence kernels.
func Convergent() []ConvergenceKernel {
	return []ConvergenceKernel{PageRank, LabelProp}
}

// ConvergentOf reports whether k evaluates under the iterate-to-convergence
// paradigm, and returns its ConvergenceKernel view if so.
func ConvergentOf(k Kernel) (ConvergenceKernel, bool) {
	ck, ok := k.(ConvergenceKernel)
	return ck, ok
}

// AnyConvergent reports whether any query of the batch carries a convergence
// kernel. Engines use it to route a batch to the Jacobi evaluator; batching
// layers split mixed buffers so a routed batch is always homogeneous.
func AnyConvergent(batch []Query) bool {
	for _, q := range batch {
		if _, ok := ConvergentOf(q.Kernel); ok {
			return true
		}
	}
	return false
}
