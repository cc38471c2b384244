package sched

import (
	"sync"
	"testing"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// Property and fuzz coverage for the batching policies: for ANY buffer size,
// batch cap, and reorder window — including the degenerate values the serve
// loop can produce (empty flush remainders, caps larger than the buffer,
// non-positive caps) — MakeBatches must emit an exact partition of the
// buffer indices (a permutation: no duplicate, no loss), and windowed
// affinity reordering must never displace a query by a full window.

var (
	fuzzProfileOnce sync.Once
	fuzzGraph       *graph.Graph
	fuzzProfile     *align.Profile
)

// fuzzSetup builds one tiny graph + profile shared by every fuzz execution
// (the profile is a per-graph precompute; rebuilding it per input would
// dominate the fuzzing loop).
func fuzzSetup() (*graph.Graph, *align.Profile) {
	fuzzProfileOnce.Do(func() {
		fuzzGraph = graph.PaperExample()
		fuzzProfile = align.NewProfile(fuzzGraph, align.DefaultHubCount, 0)
	})
	return fuzzGraph, fuzzProfile
}

// fuzzBuffer derives a deterministic query buffer of length n from a seed
// (splitmix-style, stable across Go releases).
func fuzzBuffer(g *graph.Graph, n int, seed uint64) []queries.Query {
	buf := make([]queries.Query, n)
	x := seed
	for i := range buf {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		buf[i] = queries.Query{Kernel: queries.SSSP, Source: graph.VertexID(z % uint64(g.NumVertices()))}
	}
	return buf
}

// checkExactPartition asserts batches is a permutation of [0,n) (allowing
// any batch size — the caller checks caps where they apply).
func checkExactPartition(t *testing.T, n int, batches [][]int) {
	t.Helper()
	seen := make([]bool, n)
	total := 0
	for _, b := range batches {
		for _, i := range b {
			if i < 0 || i >= n {
				t.Fatalf("index %d out of [0,%d)", i, n)
			}
			if seen[i] {
				t.Fatalf("index %d scheduled twice", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("scheduled %d of %d queries", total, n)
	}
}

// checkPolicies runs the three policies on one (n, batchSize, window) shape
// and asserts the partition and displacement properties.
func checkPolicies(t *testing.T, n, batchSize, window int, seed uint64) {
	t.Helper()
	g, prof := fuzzSetup()
	buf := fuzzBuffer(g, n, seed)

	fcfs := FCFS{}.MakeBatches(buf, batchSize)
	checkExactPartition(t, n, fcfs)
	if d := MaxDisplacement(fcfs); d != 0 {
		t.Fatalf("FCFS displaced a query by %d (n=%d b=%d)", d, n, batchSize)
	}

	aff := Affinity{Profile: prof, Window: window}.MakeBatches(buf, batchSize)
	checkExactPartition(t, n, aff)
	if window > 0 {
		if d := MaxDisplacement(aff); d >= window {
			t.Fatalf("affinity displacement %d >= window %d (n=%d b=%d)", d, window, n, batchSize)
		}
	}
	ibfs := IBFS{Graph: g}.MakeBatches(buf, batchSize)
	checkExactPartition(t, n, ibfs)
	if batchSize <= 0 && n > 0 && len(ibfs) != 1 {
		t.Fatalf("iBFS split a buffer of %d into %d batches at cap %d, want the whole buffer", n, len(ibfs), batchSize)
	}
	// Batch caps hold whenever the cap is meaningful.
	if batchSize > 0 {
		for _, batches := range [][][]int{fcfs, aff, ibfs} {
			for _, b := range batches {
				if len(b) > batchSize {
					t.Fatalf("batch of %d exceeds cap %d (n=%d w=%d)", len(b), batchSize, n, window)
				}
			}
		}
	}
	// Select must round-trip every batch back to the buffered queries.
	for _, b := range aff {
		sel := Select(buf, b)
		for i, bi := range b {
			if sel[i] != buf[bi] {
				t.Fatalf("Select mismatch at batch index %d", i)
			}
		}
	}
}

// TestPolicyPartitionProperties sweeps the edge-case lattice directly so the
// properties are pinned even when the fuzzer corpus is not run.
func TestPolicyPartitionProperties(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 7, 17, 64, 129}
	caps := []int{-3, 0, 1, 2, 5, 64, 200}
	windows := []int{-1, 0, 1, 2, 5, 16, 1000}
	seed := uint64(0x5eed)
	for _, n := range sizes {
		for _, b := range caps {
			for _, w := range windows {
				checkPolicies(t, n, b, w, seed)
				seed++
			}
		}
	}
}

// TestEmptyInputs pins the degenerate shapes the serving loop can hand the
// policies: empty buffers and empty batch lists must be handled, not
// special-cased by callers.
func TestEmptyInputs(t *testing.T) {
	_, prof := fuzzSetup()
	if got := (FCFS{}).MakeBatches(nil, 4); len(got) != 0 {
		t.Errorf("FCFS on empty buffer made %d batches", len(got))
	}
	if got := (Affinity{Profile: prof, Window: 8}).MakeBatches(nil, 4); len(got) != 0 {
		t.Errorf("Affinity on empty buffer made %d batches", len(got))
	}
	if d := MaxDisplacement(nil); d != 0 {
		t.Errorf("MaxDisplacement(nil) = %d", d)
	}
	if d := MaxDisplacement([][]int{}); d != 0 {
		t.Errorf("MaxDisplacement(empty) = %d", d)
	}
	if sel := Select(nil, nil); len(sel) != 0 {
		t.Errorf("Select(nil, nil) = %v", sel)
	}
}

// FuzzPolicyPartition fuzzes the (n, batchSize, window, seed) space. Sizes
// are folded into sane ranges so the fuzzer explores shape interactions
// rather than allocation limits.
func FuzzPolicyPartition(f *testing.F) {
	f.Add(uint16(0), int16(0), int16(0), uint64(1))
	f.Add(uint16(1), int16(1), int16(1), uint64(2))
	f.Add(uint16(64), int16(4), int16(16), uint64(3))
	f.Add(uint16(200), int16(-5), int16(7), uint64(4))
	f.Add(uint16(33), int16(64), int16(1), uint64(5))
	f.Fuzz(func(t *testing.T, n uint16, batchSize, window int16, seed uint64) {
		checkPolicies(t, int(n)%512, int(batchSize), int(window), seed)
	})
}
