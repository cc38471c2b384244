package queries

import (
	"math"
	"reflect"
	"testing"

	"github.com/glign/glign/internal/graph"
)

func TestByNameResolvesAllParadigms(t *testing.T) {
	for _, name := range []string{"BFS", "SSSP", "SSWP", "SSNP", "Viterbi", "PageRank", "LabelProp"} {
		k, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if k.Name() != name {
			t.Fatalf("ByName(%q) returned kernel %q", name, k.Name())
		}
	}
	k, err := ByName("KHOP")
	if err != nil || k.Name() != "KHOP3" {
		t.Fatalf("ByName(KHOP) = %v, %v; want the default-depth KHOP3", k, err)
	}
	k, err = ByName("KHOP5")
	if err != nil || k.Name() != "KHOP5" {
		t.Fatalf("ByName(KHOP5) = %v, %v", k, err)
	}
	for _, bad := range []string{"KHOPx", "KHOP-1", "PageRanks", "khop3"} {
		if _, err := ByName(bad); err == nil {
			t.Fatalf("ByName(%q) succeeded; want error", bad)
		}
	}
}

func TestParadigmClassification(t *testing.T) {
	for _, k := range Monotone() {
		if _, ok := ConvergentOf(k); ok {
			t.Fatalf("Monotone() kernel %s claims the convergence paradigm", k.Name())
		}
	}
	for _, ck := range Convergent() {
		if _, ok := ConvergentOf(ck); !ok {
			t.Fatalf("Convergent() kernel %s does not type-assert back", ck.Name())
		}
	}
	batch := []Query{{Kernel: BFS, Source: 0}, {Kernel: SSSP, Source: 1}}
	if AnyConvergent(batch) {
		t.Fatalf("AnyConvergent true on an all-monotone batch")
	}
	batch = append(batch, Query{Kernel: PageRank, Source: 0})
	if !AnyConvergent(batch) {
		t.Fatalf("AnyConvergent false with PageRank present")
	}
}

// srcSeeded is a convergence kernel outside this package's list whose
// result depends on the source: it wraps PageRank but seeds the source.
type srcSeeded struct{ ConvergenceKernel }

func (srcSeeded) Name() string { return "SrcSeeded" }
func (srcSeeded) InitialValue(_ int, v, src graph.VertexID) Value {
	if v == src {
		return 1
	}
	return 0
}

// TestKeyOf holds the computation key: a kernel's queries share a key across
// sources exactly when the kernel declares itself source-free, which only
// PageRank and LabelProp do — never a convergence kernel merely by paradigm.
func TestKeyOf(t *testing.T) {
	for _, k := range append(Monotone(), srcSeeded{PageRank}) {
		if KeyOf(Query{Kernel: k, Source: 1}) == KeyOf(Query{Kernel: k, Source: 2}) {
			t.Errorf("%s: sources 1 and 2 share a key", k.Name())
		}
		if KeyOf(Query{Kernel: k, Source: 3}) != KeyOf(Query{Kernel: k, Source: 3}) {
			t.Errorf("%s: one query keys two ways", k.Name())
		}
	}
	for _, ck := range Convergent() {
		if KeyOf(Query{Kernel: ck, Source: 1}) != KeyOf(Query{Kernel: ck, Source: 2}) {
			t.Errorf("%s: source-free kernel keys sources 1 and 2 apart", ck.Name())
		}
	}
	if KeyOf(Query{Kernel: BFS, Source: 3}) == KeyOf(Query{Kernel: SSSP, Source: 3}) {
		t.Error("BFS and SSSP on one source share a key")
	}
	if KeyOf(Query{Kernel: PageRank}) == KeyOf(Query{Kernel: LabelProp}) {
		t.Error("PageRank and LabelProp share a key")
	}
}

// TestKernelsAreStateless holds the purity contract engines rely on when
// they call one kernel value from every worker on every edge (or every vertex
// of a Jacobi round) with no synchronization: a kernel is a value of a
// non-pointer struct whose fields are all of basic kinds, so no method can
// write state that another worker reads, neither through its receiver nor
// through a pointer, slice, map or channel it carries. The -race legs run
// every kernel concurrently as the dynamic half of the same contract.
func TestKernelsAreStateless(t *testing.T) {
	kernels := append(Monotone(), KHop(5))
	for _, ck := range Convergent() {
		kernels = append(kernels, ck)
	}
	for _, k := range kernels {
		typ := reflect.TypeOf(k)
		if typ.Kind() != reflect.Struct {
			t.Errorf("kernel %s is a %s, not a struct value", k.Name(), typ.Kind())
			continue
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Bool, reflect.String,
				reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
				reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
				reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			default:
				t.Errorf("kernel %s (%s) carries field %s of kind %s; kernels hold only basic values",
					k.Name(), typ, f.Name, f.Type.Kind())
			}
		}
	}
}

func TestConvergenceKernelsPanicOnMonotonePath(t *testing.T) {
	for _, ck := range Convergent() {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s.Relax did not panic", ck.Name())
				}
			}()
			ck.Relax(0, 1)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s.Better did not panic", ck.Name())
				}
			}()
			ck.Better(0, 1)
		}()
	}
}

func TestKHopRelaxTruncatesAtBound(t *testing.T) {
	k := KHop(2)
	if got := k.Relax(0, 1); got != 1 {
		t.Fatalf("Relax(0) = %v, want 1", got)
	}
	if got := k.Relax(1, 1); got != 2 {
		t.Fatalf("Relax(1) = %v, want 2", got)
	}
	if got := k.Relax(2, 1); !math.IsInf(got, 1) {
		t.Fatalf("Relax(2) = %v, want +Inf (beyond the bound)", got)
	}
	if hb := k.(interface{ HopBound() int }).HopBound(); hb != 2 {
		t.Fatalf("HopBound = %d, want 2", hb)
	}
}

func TestPageRankStep(t *testing.T) {
	// Two in-neighbors with ranks 0.2 (deg 2) and 0.4 (deg 4): the step is
	// (1-d)/n + d*(0.1+0.1) with n=10, d=0.85.
	got := PageRank.Step(10, 0, []Value{0.2, 0.4}, []int32{2, 4})
	want := 0.15/10 + 0.85*0.2
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("Step = %v, want %v", got, want)
	}
	if r := PageRank.Residual(0.2, 0.25); math.Abs(r-0.05) > 1e-15 {
		t.Fatalf("Residual = %v, want 0.05", r)
	}
	if PageRank.InitialValue(4, 2, 0) != 0.25 {
		t.Fatalf("InitialValue(4) != 1/4")
	}
}

func TestLabelPropStep(t *testing.T) {
	if got := LabelProp.Step(10, 7, []Value{9, 3, 8}, nil); got != 3 {
		t.Fatalf("Step = %v, want the min label 3", got)
	}
	if got := LabelProp.Step(10, 2, []Value{9, 3, 8}, nil); got != 2 {
		t.Fatalf("Step = %v, want to keep own smaller label 2", got)
	}
	if LabelProp.Residual(3, 3) != 0 || LabelProp.Residual(3, 2) != 1 {
		t.Fatalf("Residual must be 0 iff unchanged")
	}
	if LabelProp.InitialValue(10, 6, 0) != 6 {
		t.Fatalf("InitialValue must be the vertex's own id")
	}
}
