package queries

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/glign/glign/internal/graph"
)

// Value is the vertex property type shared by all kernels. BFS levels,
// shortest distances, widest/narrowest path capacities and Viterbi
// probabilities all embed losslessly into float64 at the scales this
// repository generates.
type Value = float64

// Kernel is a monotone vertex function in the push model: when a vertex s is
// active, Relax(value(s), w(s,d)) proposes a new value for each out-neighbor
// d, adopted iff it is Better than d's current value (paper Table 6).
type Kernel interface {
	// Name returns the canonical benchmark name ("BFS", "SSSP", ...).
	Name() string
	// Identity is the value every non-source vertex starts at (the "no
	// information yet" element: +Inf for minimizing kernels, -Inf or 0 for
	// maximizing ones).
	Identity() Value
	// SourceValue is the initial value of the query's source vertex.
	SourceValue() Value
	// Relax proposes a value for the destination of an edge with weight w
	// whose source currently holds src.
	Relax(src Value, w graph.Weight) Value
	// Better reports whether a strictly improves on b.
	Better(a, b Value) bool
}

// bfs: level(d) = min(level(d), level(s)+1); weights ignored.
type bfs struct{}

func (bfs) Name() string                          { return "BFS" }
func (bfs) Identity() Value                       { return math.Inf(1) }
func (bfs) SourceValue() Value                    { return 0 }
func (bfs) Relax(src Value, _ graph.Weight) Value { return src + 1 }
func (bfs) Better(a, b Value) bool                { return a < b }

// sssp: dist(d) = min(dist(d), dist(s)+w).
type sssp struct{}

func (sssp) Name() string                          { return "SSSP" }
func (sssp) Identity() Value                       { return math.Inf(1) }
func (sssp) SourceValue() Value                    { return 0 }
func (sssp) Relax(src Value, w graph.Weight) Value { return src + Value(w) }
func (sssp) Better(a, b Value) bool                { return a < b }

// sswp (single-source widest path): wide(d) = max(wide(d), min(wide(s), w)).
type sswp struct{}

func (sswp) Name() string       { return "SSWP" }
func (sswp) Identity() Value    { return math.Inf(-1) }
func (sswp) SourceValue() Value { return math.Inf(1) }
func (sswp) Relax(src Value, w graph.Weight) Value {
	if Value(w) < src {
		return Value(w)
	}
	return src
}
func (sswp) Better(a, b Value) bool { return a > b }

// ssnp (single-source narrowest path): narrow(d) = min(narrow(d),
// max(narrow(s), w)).
type ssnp struct{}

func (ssnp) Name() string       { return "SSNP" }
func (ssnp) Identity() Value    { return math.Inf(1) }
func (ssnp) SourceValue() Value { return math.Inf(-1) }
func (ssnp) Relax(src Value, w graph.Weight) Value {
	if Value(w) > src {
		return Value(w)
	}
	return src
}
func (ssnp) Better(a, b Value) bool { return a < b }

// viterbi: viterbi(d) = max(viterbi(d), viterbi(s)/w). With all generated
// weights >= 1, values decay from 1.0 along paths, so max-combining is
// monotone increasing per vertex.
type viterbi struct{}

func (viterbi) Name() string                          { return "Viterbi" }
func (viterbi) Identity() Value                       { return 0 }
func (viterbi) SourceValue() Value                    { return 1 }
func (viterbi) Relax(src Value, w graph.Weight) Value { return src / Value(w) }
func (viterbi) Better(a, b Value) bool                { return a > b }

// Singleton kernels.
var (
	BFS     Kernel = bfs{}
	SSSP    Kernel = sssp{}
	SSWP    Kernel = sswp{}
	SSNP    Kernel = ssnp{}
	Viterbi Kernel = viterbi{}
)

// All returns the five benchmark kernels in the paper's order.
func All() []Kernel {
	return []Kernel{BFS, SSSP, SSWP, Viterbi, SSNP}
}

// HeterogeneousSet returns the kernels mixed in the paper's "Heter" buffers
// (BFS, SSSP, SSWP, SSNP — §4.1).
func HeterogeneousSet() []Kernel {
	return []Kernel{BFS, SSSP, SSWP, SSNP}
}

// ByName looks a kernel up by its canonical name (case-sensitive). Beyond
// the five monotone paper kernels it resolves the convergence kernels
// ("PageRank", "LabelProp") and depth-parameterized reachability ("KHOP"
// for the default depth, or "KHOP<d>" such as "KHOP4").
func ByName(name string) (Kernel, error) {
	for _, k := range All() {
		if k.Name() == name {
			return k, nil
		}
	}
	for _, ck := range Convergent() {
		if ck.Name() == name {
			return ck, nil
		}
	}
	if name == "KHOP" {
		return KHop(DefaultKHopDepth), nil
	}
	if d := strings.TrimPrefix(name, "KHOP"); d != name {
		k, err := strconv.Atoi(d)
		if err != nil || k < 0 {
			return nil, fmt.Errorf("queries: bad KHop depth in kernel name %q", name)
		}
		return KHop(k), nil
	}
	return nil, fmt.Errorf("queries: unknown kernel %q", name)
}

// Query pairs a kernel with a source vertex: one vertex-specific query of an
// evaluation batch.
type Query struct {
	Kernel Kernel
	Source graph.VertexID
}

// String renders "SSSP(v12)".
func (q Query) String() string {
	return fmt.Sprintf("%s(v%d)", q.Kernel.Name(), q.Source)
}

// Key is the module's one definition of "same computation": two queries with
// equal keys have the same result vector on one graph snapshot, so a layer
// that holds both may evaluate one and hand its vector to the other. It is
// the kernel's Name with the source vertex, except for a kernel that declares
// itself source-free (PageRank, LabelProp): its key drops the source, and its
// queries are equivalent whatever their sources. Name must therefore identify
// a kernel's computation.
type Key struct {
	Kernel string
	Source graph.VertexID
}

// sourceFree is the declaration a kernel makes that its result vector does
// not depend on the query's source. It is unexported so only this package's
// kernels can make it, and it is never inferred from the paradigm: a
// ConvergenceKernel's InitialValue may read src.
type sourceFree interface{ sourceFree() }

// KeyOf returns the computation key of q.
func KeyOf(q Query) Key {
	if _, ok := q.Kernel.(sourceFree); ok {
		return Key{Kernel: q.Kernel.Name()}
	}
	return Key{Kernel: q.Kernel.Name(), Source: q.Source}
}
