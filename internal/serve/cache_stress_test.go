package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
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
			want[queries.KeyOf(q)] = oracle.ReferenceRun(g, q)
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

// TestStatsSnapshotsHoldTheLedger polls Stats while concurrent submitters
// send repeats (dedup joins while the engine is held, cache hits once it is
// free), invalid submissions, and more distinct queries than a held engine's
// queue admits. Every snapshot must hold the ledger's inequalities — no
// submission is counted in an outcome before it is counted as submitted, and
// no ticket is counted completed before it is counted admitted, hit or
// joined — and the quiescent server SERVING.md §8's equalities.
func TestStatsSnapshotsHoldTheLedger(t *testing.T) {
	gate := newGateEngine()
	s := startServer(t, NewFakeClock(time.Unix(0, 0)), func(c *Config) {
		c.BatchSize = 2
		c.QueueCapacity = 4
		c.Engine = gate
	})
	g := testGraph()
	ctx := context.Background()

	stopPoll := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			st := s.Stats()
			if outcomes := st.Admitted + st.RejectedFull + st.RejectedClosed + st.CacheHits + st.DedupCoalesced; st.Submitted < outcomes {
				t.Errorf("snapshot: submitted=%d < admitted+rejected+hits+coalesced=%d: %+v", st.Submitted, outcomes, st)
				return
			}
			if owed := st.Admitted + st.CacheHits + st.DedupCoalesced; st.Completed > owed {
				t.Errorf("snapshot: completed=%d > admitted+hits+coalesced=%d: %+v", st.Completed, owed, st)
				return
			}
			runtime.Gosched()
		}
	}()

	// submitAll runs one goroutine per submitter, each sending every query
	// of qs (in its own rotation) and then an invalid one, and returns the
	// tickets and the count of invalid submissions.
	var mu sync.Mutex
	var tickets []*Ticket
	invalid := 0
	submitAll := func(qs []queries.Query) {
		const submitters = 4
		var wg sync.WaitGroup
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var mine []*Ticket
				for i := range qs {
					tk, err := s.Submit(ctx, qs[(w+i)%len(qs)])
					switch {
					case errors.Is(err, ErrQueueFull):
					case err != nil:
						t.Errorf("submit %v: %v", qs[(w+i)%len(qs)], err)
					default:
						mine = append(mine, tk)
					}
				}
				if _, err := s.Submit(ctx, queries.Query{Kernel: queries.BFS, Source: graph.VertexID(g.NumVertices())}); err == nil {
					t.Error("out-of-range source accepted")
				}
				mu.Lock()
				tickets = append(tickets, mine...)
				invalid++
				mu.Unlock()
			}(w)
		}
		wg.Wait()
	}
	bfs := func(src int) queries.Query { return queries.Query{Kernel: queries.BFS, Source: graph.VertexID(src)} }

	// Phase 1: the engine is held, so nine distinct keys overflow a queue of
	// four and every submitter after the first joins an admitted key.
	tickets = append(tickets, hold(t, s, gate, queries.Query{Kernel: queries.SSSP, Source: 0}))
	var phase1 []queries.Query
	for src := 0; src < g.NumVertices(); src++ {
		phase1 = append(phase1, bfs(src))
	}
	submitAll(phase1)
	close(gate.release)
	for _, tk := range tickets {
		mustValues(t, g, tk)
	}
	// Phase 2: the engine is free; admitted keys are cache hits, the rest
	// run (and may be joined or hit by the other submitters).
	submitAll(phase1)
	for _, tk := range tickets {
		mustValues(t, g, tk)
	}
	close(stopPoll)
	poller.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ctx, bfs(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}

	st := s.Stats()
	if st.RejectedFull == 0 || st.DedupCoalesced == 0 || st.CacheHits == 0 || st.RejectedClosed != 1 {
		t.Fatalf("stats = %+v, want rejected_full, dedup_coalesced and cache_hits > 0 and rejected_closed = 1", st)
	}
	if outcomes := st.Admitted + st.RejectedFull + st.RejectedClosed + st.CacheHits + st.DedupCoalesced + int64(invalid); st.Submitted != outcomes {
		t.Errorf("submitted=%d != admitted+rejected+hits+coalesced+invalid=%d: %+v", st.Submitted, outcomes, st)
	}
	if st.Completed != int64(len(tickets)) || st.Completed != st.Admitted+st.CacheHits+st.DedupCoalesced {
		t.Errorf("completed=%d, want %d tickets = admitted+hits+coalesced=%d: %+v",
			st.Completed, len(tickets), st.Admitted+st.CacheHits+st.DedupCoalesced, st)
	}
	lanes := int64(0)
	for len(gate.entered) > 0 {
		lanes += int64(len(<-gate.entered))
	}
	lanes++ // the held batch, read by hold
	if st.Admitted != lanes || st.QueueDepth != 0 || st.Shed+st.Canceled+st.DeadlineMisses != 0 {
		t.Errorf("admitted=%d, want the %d executed lanes with nothing queued, shed, canceled or expired: %+v", st.Admitted, lanes, st)
	}
}
