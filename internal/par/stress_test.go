package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// leakCheck records the goroutine count, with the default pool's workers
// already running, and returns a func that fails t unless the count is back
// at or below it within 2 s, dumping every goroutine's stack if not.
func leakCheck(t *testing.T) func() {
	t.Helper()
	Default()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines after the run, %d before:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// TestPoolCloseJoinsWorkers holds the pool's goroutine lifetime: NewPool
// launches its workers, For runs on them, and Close joins every one.
func TestPoolCloseJoinsWorkers(t *testing.T) {
	noLeak := leakCheck(t)
	p := NewPool(4)
	var sum atomic.Int64
	p.For(1000, 4, 1, func(lo, hi int) { sum.Add(int64(hi - lo)) })
	p.Close()
	if sum.Load() != 1000 {
		t.Fatalf("For covered %d of 1000 indices", sum.Load())
	}
	noLeak()
}

// TestConcurrentPoolStress hammers one shared Pool with concurrent For and
// ForSlots loops from many goroutines across GOMAXPROCS 1, 2 and 8. Its job
// is to give the race detector (verify.sh runs this package under -race)
// real interleavings to bite on: concurrent job dispatch, segment-cursor
// claims, cross-job stealing by parked workers, and the completion protocol
// all overlap here. Every loop's result is checked exactly, so a lost or
// double-executed chunk is a failure even without -race.
func TestConcurrentPoolStress(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			p := NewPool(4)
			defer p.Close()

			const submitters = 6
			const repeats = 25
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for rep := 0; rep < repeats; rep++ {
						// Vary geometry per submitter and repeat so jobs of
						// different shapes overlap in the pool.
						total := 1000 + 997*s + 13*rep
						workers := 1 + (s+rep)%5
						seen := make([]int32, total)
						p.For(total, workers, 0, func(lo, hi int) {
							for i := lo; i < hi; i++ {
								atomic.AddInt32(&seen[i], 1)
							}
						})
						for i, c := range seen {
							if c != 1 {
								t.Errorf("submitter %d rep %d: index %d visited %d times", s, rep, i, c)
								return
							}
						}
						// One plain int64 a slot: a slot two participants
						// shared is a race report under -race.
						sums := make([]int64, p.Slots(workers))
						p.ForSlots(total, workers, 0, func(slot, lo, hi int) {
							for i := lo; i < hi; i++ {
								sums[slot] += int64(i)
							}
						})
						var got int64
						for _, sum := range sums {
							got += sum
						}
						if want := int64(total) * int64(total-1) / 2; got != want {
							t.Errorf("submitter %d rep %d: sum = %d, want %d", s, rep, got, want)
							return
						}
					}
				}(s)
			}
			wg.Wait()

			// The shared counters must be coherent after the storm.
			st := p.Stats()
			var perWorker int64
			for _, c := range st.ChunksPerWorker {
				perWorker += c
			}
			if perWorker != st.Chunks {
				t.Errorf("ChunksPerWorker sums to %d, want %d", perWorker, st.Chunks)
			}
			if st.Jobs+st.InlineRuns < submitters*repeats {
				t.Errorf("Jobs+InlineRuns = %d, want >= %d", st.Jobs+st.InlineRuns, submitters*repeats)
			}
		})
	}
}

// TestPoolCloseRacesInFlightLoops closes a pool while loops are in flight on
// it: several submitters start loops whose bodies wait until Close has begun.
// Every index must still run exactly once — the submitters steal the segments
// of workers that exit — every loop must return, and Close must join every
// worker.
func TestPoolCloseRacesInFlightLoops(t *testing.T) {
	noLeak := leakCheck(t)
	p := NewPool(4)
	const submitters, total = 4, 4096
	closing := make(chan struct{})
	seen := make([][]atomic.Int32, submitters)
	var running, done sync.WaitGroup
	for s := range seen {
		seen[s] = make([]atomic.Int32, total)
		running.Add(1)
		done.Add(1)
		go func(seen []atomic.Int32) {
			defer done.Done()
			var first sync.Once
			p.For(total, 0, minGrain, func(lo, hi int) {
				first.Do(running.Done)
				<-closing
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
		}(seen[s])
	}
	running.Wait() // every loop has a chunk in its body
	close(closing)
	p.Close()
	done.Wait()
	for s := range seen {
		for i := range seen[s] {
			if c := seen[s][i].Load(); c != 1 {
				t.Fatalf("submitter %d: index %d ran %d times", s, i, c)
			}
		}
	}
	noLeak()
}
