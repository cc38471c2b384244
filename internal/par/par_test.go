package par

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		for _, total := range []int{0, 1, 63, 64, 65, 1000, 4097} {
			seen := make([]int32, total)
			For(total, workers, 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d total=%d: index %d visited %d times", workers, total, i, c)
				}
			}
		}
	}
}

func TestForZeroAndNegativeTotal(t *testing.T) {
	called := false
	For(0, 4, 0, func(lo, hi int) { called = true })
	For(-5, 4, 0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForSingleWorkerRunsInline(t *testing.T) {
	// With one worker the callback must see the whole range in one call
	// (deterministic inline execution).
	var calls int
	For(10000, 1, 0, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10000 {
			t.Fatalf("inline run got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestForExplicitGrain(t *testing.T) {
	var chunks atomic.Int64
	For(1000, 4, 100, func(lo, hi int) {
		chunks.Add(1)
		if hi-lo > 100 {
			t.Errorf("chunk [%d,%d) exceeds grain", lo, hi)
		}
	})
	if got := chunks.Load(); got != 10 {
		t.Fatalf("chunks = %d, want 10", got)
	}
}

func TestForEach(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	var sum atomic.Int64
	ForEach(items, 4, func(x int) { sum.Add(int64(x)) })
	if got, want := sum.Load(), int64(500*499/2); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestQuickForPartitions(t *testing.T) {
	f := func(total uint16, workers uint8, grain uint16) bool {
		n := int(total) % 5000
		var count atomic.Int64
		For(n, int(workers)%8, int(grain)%300, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
			}
			count.Add(int64(hi - lo))
		})
		return int(count.Load()) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

// TestGrainDerivesChunkCountFirst pins the fixed heuristic: when total is
// just above minGrain*workers, the chunks must stay within one grain of each
// other instead of clamping to minGrain and leaving a ragged tail (the old
// total/(workers*8) rule produced 64,64,64,64,4 for total=260 — one worker
// ran double the work of the rest).
func TestGrainDerivesChunkCountFirst(t *testing.T) {
	cases := []struct {
		total, workers, grain int
		wantGrain, wantChunks int
	}{
		{260, 4, 0, 65, 4},      // just above minGrain*workers: 4 even chunks
		{256, 4, 0, 64, 4},      // exactly minGrain*workers
		{300, 4, 0, 75, 4},      // still floor-limited: 4 chunks of 75
		{1024, 4, 0, 64, 16},    // unconstrained: chunksPerWorker*workers chunks
		{4096, 4, 0, 256, 16},   // ditto, grain scales with total
		{63, 4, 0, 64, 1},       // sub-grain total collapses to one chunk
		{1000, 4, 100, 100, 10}, // explicit grain honored exactly
		{1000, 4, 7, 64, 16},    // explicit grain floors at minGrain
	}
	for _, c := range cases {
		g, n := grainFor(c.total, c.workers, c.grain)
		if g != c.wantGrain || n != c.wantChunks {
			t.Errorf("grainFor(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.total, c.workers, c.grain, g, n, c.wantGrain, c.wantChunks)
		}
	}
}

// TestGrainChunkBoundaries verifies the executed chunk boundaries match the
// derived geometry exactly: every chunk starts on a grain multiple and only
// the final chunk may be short.
func TestGrainChunkBoundaries(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, total := range []int{260, 300, 1000, 4097} {
		g, nChunks := grainFor(total, 4, 0)
		var mu sync.Mutex
		var got [][2]int
		p.For(total, 4, 0, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		if len(got) != nChunks {
			t.Fatalf("total=%d: %d chunks, want %d", total, len(got), nChunks)
		}
		sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
		for i, c := range got {
			if c[0] != i*g {
				t.Fatalf("total=%d: chunk %d starts at %d, want %d", total, i, c[0], i*g)
			}
			want := c[0] + g
			if want > total {
				want = total
			}
			if c[1] != want {
				t.Fatalf("total=%d: chunk %d ends at %d, want %d", total, i, c[1], want)
			}
		}
	}
}

func TestPoolForCoversRangeExactlyOnce(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for _, workers := range []int{1, 2, 4, 0} {
		for _, total := range []int{0, 1, 63, 64, 65, 1000, 4097, 100000} {
			seen := make([]int32, total)
			p.For(total, workers, 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d total=%d: index %d visited %d times", workers, total, i, c)
				}
			}
		}
	}
}

func TestPoolReuseAcrossCalls(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for round := 0; round < 200; round++ {
		var sum atomic.Int64
		p.For(1000, 4, 0, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
		if got, want := sum.Load(), int64(1000*999/2); got != want {
			t.Fatalf("round %d: sum = %d, want %d", round, got, want)
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.For(500, 2, 0, func(lo, hi int) {})
	p.Close()
	p.Close() // second Close must not panic or deadlock
}

func TestForReduceSum(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, workers := range []int{1, 2, 4, 0} {
		for _, total := range []int{0, 1, 64, 1000, 4097, 250000} {
			got := ForReduce(p, total, workers, 0, int64(0),
				func(lo, hi int, acc int64) int64 {
					for i := lo; i < hi; i++ {
						acc += int64(i)
					}
					return acc
				},
				func(a, b int64) int64 { return a + b })
			want := int64(total) * int64(total-1) / 2
			if total == 0 {
				want = 0
			}
			if got != want {
				t.Fatalf("workers=%d total=%d: sum = %d, want %d", workers, total, got, want)
			}
		}
	}
}

func TestForReduceMax(t *testing.T) {
	// Non-commutative-looking fold with a non-zero identity: max over a
	// permuted slice.
	n := 10000
	xs := make([]int, n)
	for i := range xs {
		xs[i] = (i * 2654435761) % 999983
	}
	got := ForReduce(nil, n, 4, 0, -1,
		func(lo, hi int, acc int) int {
			for i := lo; i < hi; i++ {
				if xs[i] > acc {
					acc = xs[i]
				}
			}
			return acc
		},
		func(a, b int) int {
			if a > b {
				return a
			}
			return b
		})
	want := -1
	for _, x := range xs {
		if x > want {
			want = x
		}
	}
	if got != want {
		t.Fatalf("max = %d, want %d", got, want)
	}
}

// TestForReduceDeterministicFloat pins the schedule-independence contract:
// for a fixed geometry the float merge order is chunk order, so repeated
// parallel folds agree bit-for-bit with each other (and with a serial fold
// over the same chunk boundaries).
func TestForReduceDeterministicFloat(t *testing.T) {
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1.0 / float64(i+1)
	}
	fold := func() float64 {
		return ForReduce(nil, n, 4, 0, 0.0,
			func(lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += xs[i]
				}
				return acc
			},
			func(a, b float64) float64 { return a + b })
	}
	first := fold()
	for i := 0; i < 20; i++ {
		if got := fold(); got != first {
			t.Fatalf("fold %d = %v, want %v (schedule leaked into the merge order)", i, got, first)
		}
	}
}

func TestForReduceSingleWorkerInline(t *testing.T) {
	var calls int
	got := ForReduce(nil, 5000, 1, 0, 0,
		func(lo, hi int, acc int) int {
			calls++
			if lo != 0 || hi != 5000 {
				t.Fatalf("inline fold got [%d,%d)", lo, hi)
			}
			return acc + (hi - lo)
		},
		func(a, b int) int { return a + b })
	if calls != 1 || got != 5000 {
		t.Fatalf("calls=%d got=%d, want 1 call returning 5000", calls, got)
	}
}

func TestPoolStats(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.For(100000, 3, 0, func(lo, hi int) {})
	p.For(10, 4, 0, func(lo, hi int) {}) // sub-grain: inline
	st := p.Stats()
	if st.Workers != 2 {
		t.Errorf("Workers = %d, want 2", st.Workers)
	}
	if st.Jobs != 1 {
		t.Errorf("Jobs = %d, want 1", st.Jobs)
	}
	if st.InlineRuns != 1 {
		t.Errorf("InlineRuns = %d, want 1", st.InlineRuns)
	}
	_, wantChunks := grainFor(100000, 3, 0)
	if st.Chunks != int64(wantChunks) {
		t.Errorf("Chunks = %d, want %d", st.Chunks, wantChunks)
	}
	var perWorker int64
	for _, c := range st.ChunksPerWorker {
		perWorker += c
	}
	if perWorker != st.Chunks {
		t.Errorf("ChunksPerWorker sums to %d, want %d", perWorker, st.Chunks)
	}
	if len(st.ChunksPerWorker) != 3 { // submitter cell + 2 workers
		t.Errorf("len(ChunksPerWorker) = %d, want 3", len(st.ChunksPerWorker))
	}
}
