package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// TestCacheEpochBumpStress hammers the cache with concurrent submissions
// while a dedicated goroutine bumps the epoch continuously. The invariant
// under test is freshness: a ticket's result must carry an epoch at least as
// new as the epoch observed before its submission — a bump that lands while
// a batch is in flight must never let a pre-bump cache entry (or a pre-bump
// in-flight slot) answer a post-bump submission. Values are additionally
// checked against the serial reference on every completion, and the
// submission ledger must balance exactly at the end.
//
// The server runs with BatchSize 1 on a fake clock, so every admission
// flushes by size — no timing dependence, just raw interleaving for the race
// detector to explore.
func TestCacheEpochBumpStress(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 1
		c.QueueCapacity = 4096
	})
	g := testGraph()

	// Reference fixed points, precomputed once per (kernel, source).
	kernels := []queries.Kernel{queries.BFS, queries.SSSP}
	want := make(map[queries.Key][]queries.Value)
	for _, k := range kernels {
		for v := 0; v < g.NumVertices(); v++ {
			q := queries.Query{Kernel: k, Source: graph.VertexID(v)}
			want[queries.KeyOf(q)] = engine.ReferenceRun(g, q)
		}
	}

	const workers = 4
	const opsPerWorker = 64
	stopBumper := make(chan struct{})
	var bumper sync.WaitGroup
	bumper.Add(1)
	go func() {
		defer bumper.Done()
		for {
			select {
			case <-stopBumper:
				return
			default:
				s.BumpEpoch()
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < opsPerWorker; i++ {
				q := queries.Query{
					Kernel: kernels[(w+i)%len(kernels)],
					Source: graph.VertexID((w*7 + i*3) % g.NumVertices()),
				}
				ePre := s.Epoch()
				tk, err := s.Submit(ctx, q)
				if err != nil {
					t.Errorf("worker %d op %d: submit: %v", w, i, err)
					return
				}
				vals, err := tk.Wait(ctx)
				if err != nil {
					t.Errorf("worker %d op %d: wait: %v", w, i, err)
					return
				}
				if e := tk.ResultEpoch(); e < ePre {
					t.Errorf("worker %d op %d: stale result: epoch %d < %d observed before submit", w, i, e, ePre)
					return
				}
				ref := want[queries.KeyOf(q)]
				for v := range ref {
					if vals[v] != ref[v] {
						t.Errorf("worker %d op %d: vertex %d = %v, want %v", w, i, v, vals[v], ref[v])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopBumper)
	bumper.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	const total = workers * opsPerWorker
	if st.Submitted != total {
		t.Errorf("submitted = %d, want %d", st.Submitted, total)
	}
	if st.Completed != total {
		t.Errorf("completed = %d, want %d (every ticket answered)", st.Completed, total)
	}
	accounted := st.Admitted + st.RejectedFull + st.RejectedClosed + st.CacheHits + st.DedupCoalesced
	if st.Submitted != accounted {
		t.Errorf("ledger: submitted=%d != admitted(%d)+rejected(%d+%d)+hits(%d)+coalesced(%d)",
			st.Submitted, st.Admitted, st.RejectedFull, st.RejectedClosed, st.CacheHits, st.DedupCoalesced)
	}
	if st.RejectedFull != 0 || st.RejectedClosed != 0 || st.Shed != 0 {
		t.Errorf("unexpected rejections under capacity 4096: %+v", st)
	}
}
