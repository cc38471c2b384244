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

// TestForSlotsSum sums [0,total) into one plain int64 a slot: every slot is
// below Slots(workers), also when workers exceeds the pool's participants, and
// the slots' sums add up exactly. A slot two participants shared would be a
// lost update here and a race under -race.
func TestForSlotsSum(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, workers := range []int{1, 2, 4, 8, 0} {
		for _, total := range []int{0, 1, 64, 1000, 4097, 250000} {
			sums := make([]int64, p.Slots(workers))
			p.ForSlots(total, workers, 0, func(slot, lo, hi int) {
				if slot < 0 || slot >= len(sums) {
					t.Errorf("workers=%d total=%d: slot %d outside [0,%d)", workers, total, slot, len(sums))
					return
				}
				for i := lo; i < hi; i++ {
					sums[slot] += int64(i)
				}
			})
			var got int64
			for _, sum := range sums {
				got += sum
			}
			if want := int64(total) * int64(total-1) / 2; got != want {
				t.Fatalf("workers=%d total=%d: sum = %d, want %d", workers, total, got, want)
			}
		}
	}
	if got, want := p.Slots(0), p.Workers()+1; got != want {
		t.Errorf("Slots(0) = %d, want the %d background workers plus the submitter", got, want)
	}
}

// TestForSlotsInlineRunsOnSlotZero holds what a loop that runs inline — one
// worker, or a total within one grain — hands its body: the whole range, once,
// on slot 0.
func TestForSlotsInlineRunsOnSlotZero(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for _, c := range []struct{ total, workers int }{{5000, 1}, {minGrain, 4}, {10, 0}} {
		calls := 0
		p.ForSlots(c.total, c.workers, 0, func(slot, lo, hi int) {
			calls++
			if slot != 0 || lo != 0 || hi != c.total {
				t.Errorf("total=%d workers=%d: inline run got slot %d, [%d,%d)", c.total, c.workers, slot, lo, hi)
			}
		})
		if calls != 1 {
			t.Errorf("total=%d workers=%d: %d calls, want 1", c.total, c.workers, calls)
		}
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
