package queries

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/glign/glign/internal/graph"
)

func TestKindOf(t *testing.T) {
	want := map[string]OpKind{
		"BFS": OpBFS, "SSSP": OpSSSP, "SSWP": OpSSWP,
		"SSNP": OpSSNP, "Viterbi": OpViterbi,
	}
	for _, k := range All() {
		if got := KindOf(k); got != want[k.Name()] {
			t.Fatalf("KindOf(%s) = %d", k.Name(), got)
		}
	}
	if KindOf(PageRank) != OpPageRank {
		t.Fatal("PageRank misclassified")
	}
	// A custom kernel falls back to OpCustom.
	if KindOf(customKernel{}) != OpCustom {
		t.Fatal("custom kernel misclassified")
	}
	kinds := KindsOf([]Kernel{BFS, SSSP})
	if len(kinds) != 2 || kinds[0] != OpBFS || kinds[1] != OpSSSP {
		t.Fatalf("KindsOf = %v", kinds)
	}
}

// customKernel is a user-defined kernel (min-plus with doubled weights).
type customKernel struct{}

func (customKernel) Name() string                          { return "Custom" }
func (customKernel) Identity() Value                       { return math.Inf(1) }
func (customKernel) SourceValue() Value                    { return 0 }
func (customKernel) Relax(src Value, w graph.Weight) Value { return src + 2*Value(w) }
func (customKernel) Better(a, b Value) bool                { return a < b }

func TestImproveMinMax(t *testing.T) {
	v := NewValues(2, 10)
	if !v.ImproveMin(0, 5) || v.ImproveMin(0, 5) || v.ImproveMin(0, 7) {
		t.Fatal("ImproveMin semantics broken")
	}
	if v.Get(0) != 5 {
		t.Fatalf("value = %v", v.Get(0))
	}
	if !v.ImproveMax(1, 20) || v.ImproveMax(1, 20) || v.ImproveMax(1, 15) {
		t.Fatal("ImproveMax semantics broken")
	}
	if v.Get(1) != 20 {
		t.Fatalf("value = %v", v.Get(1))
	}
}

// The fused path must agree exactly with the interface path for every
// built-in kernel over random states (this is what licenses the engines'
// specialized loops).
func TestQuickRelaxImproveMatchesInterface(t *testing.T) {
	kernels := All()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, k := range kernels {
			kind := KindOf(k)
			for trial := 0; trial < 50; trial++ {
				// Random current destination value and source value from
				// the kernel's plausible range.
				src := randomValue(rng, k)
				dst := randomValue(rng, k)
				w := graph.Weight(1 + rng.Intn(64))

				fast := NewValues(1, dst)
				slow := NewValues(1, dst)
				fr := RelaxImprove(fast, kind, k, 0, src, w)
				sr := slow.Improve(0, k.Relax(src, w), k.Better)
				if fr != sr || fast.Get(0) != slow.Get(0) {
					return false
				}
			}
		}
		// And the custom fallback path.
		k := customKernel{}
		v := NewValues(1, math.Inf(1))
		if !RelaxImprove(v, KindOf(k), k, 0, 3, 2) || v.Get(0) != 7 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The row kernels must agree cell for cell with per-cell RelaxImprove for
// every built-in kind — which lanes improved and the resulting row — on rows
// that mix identity-valued (unreached) sources with reached ones, at widths
// that are and are not multiples of a cache line or of a mask word, and at a
// row base inside a larger array (this is what licenses the oblivious
// engine's one-pass edge). The mask words start out dirty: the kernels
// overwrite them.
func TestQuickRelaxImproveRowMatchesPerCell(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, k := range All() {
			kind := KindOf(k)
			for _, b := range []int{1, 3, 8, 13, 64, 65, 130} {
				base := rng.Intn(5) * b
				rowwise, cellwise := NewValues(base+2*b, 0), NewValues(base+2*b, 0)
				for c := 0; c < rowwise.Len(); c++ {
					x := randomValue(rng, k)
					rowwise.Set(c, x)
					cellwise.Set(c, x)
				}
				src := make([]Value, b)
				for i := range src {
					src[i] = randomValue(rng, k)
				}
				w := graph.Weight(1 + rng.Intn(64))

				got := make([]uint64, (b+63)/64)
				for i := range got {
					got[i] = rng.Uint64()
				}
				RelaxImproveRow(rowwise, kind, base, src, make([]Value, b), w, got)
				want := make([]uint64, len(got))
				for i, s := range src {
					if RelaxImprove(cellwise, kind, k, base+i, s, w) {
						want[i>>6] |= 1 << (i & 63)
					}
				}
				if !slices.Equal(got, want) {
					return false
				}
				// Cells outside the row must be left alone too.
				for c := 0; c < rowwise.Len(); c++ {
					if rowwise.Get(c) != cellwise.Get(c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRow(t *testing.T) {
	v := NewValues(12, 0)
	for c := 0; c < v.Len(); c++ {
		v.Set(c, Value(c))
	}
	row := make([]Value, 3)
	v.LoadRow(6, row)
	if row[0] != 6 || row[1] != 7 || row[2] != 8 {
		t.Fatalf("LoadRow(6) = %v, want [6 7 8]", row)
	}
}

func randomValue(rng *rand.Rand, k Kernel) Value {
	switch rng.Intn(4) {
	case 0:
		return k.Identity()
	case 1:
		return k.SourceValue()
	}
	if k.Name() == "Viterbi" {
		return rng.Float64()
	}
	return Value(rng.Intn(200))
}
