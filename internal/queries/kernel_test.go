package queries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/glign/glign/internal/graph"
)

func TestKernelNames(t *testing.T) {
	want := []string{"BFS", "SSSP", "SSWP", "Viterbi", "SSNP"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() = %d kernels", len(all))
	}
	for i, k := range all {
		if k.Name() != want[i] {
			t.Fatalf("kernel %d = %s, want %s", i, k.Name(), want[i])
		}
	}
}

func TestByName(t *testing.T) {
	for _, k := range All() {
		got, err := ByName(k.Name())
		if err != nil || got.Name() != k.Name() {
			t.Fatalf("ByName(%s) = %v, %v", k.Name(), got, err)
		}
	}
	if _, err := ByName("pagerank"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestSourceValueBetterThanOrEqualsIdentity(t *testing.T) {
	// The source must start in a state at least as good as "unknown";
	// otherwise injection would never activate anything.
	for _, k := range All() {
		if k.Better(k.Identity(), k.SourceValue()) {
			t.Fatalf("%s: identity better than source value", k.Name())
		}
	}
}

func TestBetterIsStrict(t *testing.T) {
	for _, k := range All() {
		for _, v := range []Value{0, 1, 2.5, math.Inf(1), math.Inf(-1)} {
			if k.Better(v, v) {
				t.Fatalf("%s: Better(%v,%v) = true; must be strict", k.Name(), v, v)
			}
		}
	}
}

// Monotonicity (paper Definition 3.1): relaxing never produces a value
// better than its input source value... more precisely, for these path
// kernels, Relax(src, w) is never Better than src itself (paths only get
// longer/narrower/less probable), which is what guarantees values move
// monotonically in one direction as the frontier propagates.
func TestRelaxNeverImprovesOnSource(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range All() {
		for trial := 0; trial < 1000; trial++ {
			src := Value(rng.ExpFloat64() * 10)
			if k.Name() == "Viterbi" {
				src = rng.Float64() // probabilities live in [0,1]
			}
			w := graph.Weight(1 + rng.Intn(64))
			if out := k.Relax(src, w); k.Better(out, src) {
				t.Fatalf("%s: Relax(%v,%v)=%v better than src", k.Name(), src, w, out)
			}
		}
	}
}

// Relax must be monotone in its first argument: a better source value never
// yields a worse proposal. This is the property that makes the asynchronous
// early evaluations of the query-oblivious frontier safe (Theorem 3.2).
func TestRelaxMonotoneInSource(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range All() {
		for trial := 0; trial < 1000; trial++ {
			a := Value(rng.ExpFloat64() * 10)
			b := Value(rng.ExpFloat64() * 10)
			if k.Name() == "Viterbi" {
				a, b = rng.Float64(), rng.Float64()
			}
			if !k.Better(a, b) {
				a, b = b, a
			}
			if !k.Better(a, b) {
				continue // equal
			}
			w := graph.Weight(1 + rng.Intn(64))
			ra, rb := k.Relax(a, w), k.Relax(b, w)
			if k.Better(rb, ra) {
				t.Fatalf("%s: better src %v gave worse relax %v (vs src %v -> %v)",
					k.Name(), a, ra, b, rb)
			}
		}
	}
}

func TestKernelSpotChecks(t *testing.T) {
	if BFS.Relax(3, 99) != 4 {
		t.Fatal("BFS must ignore weights and add one")
	}
	if SSSP.Relax(3, 4) != 7 {
		t.Fatal("SSSP adds weight")
	}
	if SSWP.Relax(10, 4) != 4 || SSWP.Relax(3, 4) != 3 {
		t.Fatal("SSWP takes min(src, w)")
	}
	if SSNP.Relax(10, 4) != 10 || SSNP.Relax(3, 4) != 4 {
		t.Fatal("SSNP takes max(src, w)")
	}
	if Viterbi.Relax(1, 4) != 0.25 {
		t.Fatal("Viterbi divides by weight")
	}
}

func TestHeterogeneousSet(t *testing.T) {
	hs := HeterogeneousSet()
	if len(hs) != 4 {
		t.Fatalf("heter set size = %d", len(hs))
	}
	for _, k := range hs {
		if k.Name() == "Viterbi" {
			t.Fatal("Viterbi not in the paper's Heter mix")
		}
	}
}

func TestQueryString(t *testing.T) {
	q := Query{Kernel: SSSP, Source: 12}
	if q.String() != "SSSP(v12)" {
		t.Fatalf("String = %q", q.String())
	}
}

func TestValuesBasics(t *testing.T) {
	v := Repeat([]Value{math.Inf(1)}, 10)
	if v.Len() != 10 {
		t.Fatalf("len = %d", v.Len())
	}
	if !math.IsInf(v.Get(3), 1) {
		t.Fatal("init not applied")
	}
	v.Set(3, 7)
	if v.Get(3) != 7 {
		t.Fatal("set/get broken")
	}
	if v.Bytes() != 80 {
		t.Fatalf("bytes = %d", v.Bytes())
	}
}

func TestValuesImprove(t *testing.T) {
	less := func(a, b Value) bool { return a < b }
	v := Repeat([]Value{10}, 1)
	if !v.Improve(0, 5, less) {
		t.Fatal("improvement rejected")
	}
	if v.Improve(0, 7, less) {
		t.Fatal("worse value accepted")
	}
	if v.Improve(0, 5, less) {
		t.Fatal("equal value accepted (Better must be strict)")
	}
	if v.Get(0) != 5 {
		t.Fatalf("value = %v", v.Get(0))
	}
}

// Repeat lays n copies of a row end to end — every length the doubling fill
// can stop at, an empty row and zero copies included — and shares no storage
// with the row.
func TestValuesRepeat(t *testing.T) {
	row := []Value{math.Inf(1), 0, -1}
	for _, n := range []int{0, 1, 2, 3, 5, 8, 13} {
		for _, w := range []int{0, 1, 2, 3} {
			v := Repeat(row[:w], n)
			if v.Len() != n*w {
				t.Fatalf("Repeat(%d cells, %d): len %d", w, n, v.Len())
			}
			for c := 0; c < v.Len(); c++ {
				if got := v.Get(c); got != row[c%w] {
					t.Fatalf("Repeat(%d cells, %d): cell %d = %v, want %v", w, n, c, got, row[c%w])
				}
			}
		}
	}
	v := Repeat(row, 2)
	row[0] = 7
	if v.Get(0) != math.Inf(1) {
		t.Fatal("Repeat aliases its row")
	}
}

// FillRows sets exactly the rows it is given — every range the doubling fill
// can stop at — and leaves the rows around them alone.
func TestValuesFillRows(t *testing.T) {
	row := []Value{math.Inf(1), 0, -1}
	const n = 13
	for lo := 0; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			v := Repeat([]Value{9, 9, 9}, n)
			v.FillRows(row, lo, hi)
			for c := 0; c < v.Len(); c++ {
				want := Value(9)
				if r := c / len(row); r >= lo && r < hi {
					want = row[c%len(row)]
				}
				if got := v.Get(c); got != want {
					t.Fatalf("FillRows(rows %d-%d): cell %d = %v, want %v", lo, hi, c, got, want)
				}
			}
		}
	}
}

// CopyLanes copies exactly the lanes whose bits are set, into the row at
// base: runs at either end of a word, a whole word, and runs split by the
// word boundary of a 130-lane row.
func TestValuesCopyLanes(t *testing.T) {
	const b, base = 130, 7
	row := make([]Value, b)
	for i := range row {
		row[i] = Value(i)
	}
	src := Repeat(row, 1)
	for _, lanes := range [][]uint64{
		{0, 0, 0},
		{1, 0, 0},
		{1 << 63, 1, 0},
		{^uint64(0), 0, 3},
		{0xf0f0, 1<<63 | 1<<62, 2},
		{^uint64(0), ^uint64(0), 3},
	} {
		v := Repeat([]Value{-1}, base+b+3)
		v.CopyLanes(base, src, lanes)
		for c := 0; c < v.Len(); c++ {
			want := Value(-1)
			if i := c - base; i >= 0 && i < b && lanes[i>>6]&(1<<(i&63)) != 0 {
				want = row[i]
			}
			if got := v.Get(c); got != want {
				t.Fatalf("CopyLanes(%#x): cell %d = %v, want %v", lanes, c, got, want)
			}
		}
	}
}

// Property: concurrent Improve with a monotone comparator always converges
// to the best proposed value.
func TestQuickValuesImproveConverges(t *testing.T) {
	less := func(a, b Value) bool { return a < b }
	f := func(proposals []float64) bool {
		if len(proposals) == 0 {
			return true
		}
		v := Repeat([]Value{math.Inf(1)}, 1)
		done := make(chan struct{})
		for w := 0; w < 4; w++ {
			go func(off int) {
				for i := off; i < len(proposals); i += 4 {
					p := proposals[i]
					if math.IsNaN(p) {
						p = 0
					}
					v.Improve(0, p, less)
				}
				done <- struct{}{}
			}(w)
		}
		for w := 0; w < 4; w++ {
			<-done
		}
		best := math.Inf(1)
		for _, p := range proposals {
			if math.IsNaN(p) {
				p = 0
			}
			if p < best {
				best = p
			}
		}
		return v.Get(0) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
