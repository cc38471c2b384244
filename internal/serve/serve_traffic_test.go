package serve

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/systems"
	"github.com/glign/glign/internal/telemetry"
)

// The traffic-shaping suite pins the four PR-6 behaviors — result cache with
// epoch invalidation, in-flight dedup, affinity-aware admission, tiered
// load-shedding — on the same deterministic FakeClock harness as the base
// serving suite: every rendezvous is a channel wait, never a sleep.

// TestCacheHitSkipsExecution pins the result-cache contract: a repeated
// (kernel, source) is answered from the cache without forming a batch, a
// BumpEpoch invalidates the entry so the next submission recomputes, and
// every ticket reports the epoch its values were computed at.
func TestCacheHitSkipsExecution(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 1 // every admission flushes by size, no clock movement
	})
	g := testGraph()
	q := queries.Query{Kernel: queries.SSSP, Source: 2}

	t1, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	mustValues(t, g, t1)
	if e := t1.ResultEpoch(); e != 0 {
		t.Fatalf("first result epoch = %d, want 0", e)
	}

	// Identical query: served from cache, no new batch.
	t2, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	mustValues(t, g, t2)
	if e := t2.ResultEpoch(); e != 0 {
		t.Fatalf("cached result epoch = %d, want 0", e)
	}
	if st := s.Stats(); st.Batches != 1 || st.CacheHits != 1 || st.CacheSize != 1 {
		t.Fatalf("stats after hit = %+v, want batches=1 cache_hits=1 cache_size=1", st)
	}

	// Epoch bump: the cached entry is stale, the next submission recomputes.
	if e := s.BumpEpoch(); e != 1 || s.Epoch() != 1 {
		t.Fatalf("BumpEpoch = %d (Epoch %d), want 1", e, s.Epoch())
	}
	t3, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	mustValues(t, g, t3)
	if e := t3.ResultEpoch(); e != 1 {
		t.Fatalf("post-bump result epoch = %d, want 1", e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Batches != 2 || st.CacheHits != 1 || st.CacheMisses != 2 || st.CacheInvalidations != 1 {
		t.Errorf("stats = %+v, want batches=2 cache_hits=1 cache_misses=2 cache_invalidations=1", st)
	}
	if st.Epoch != 1 || st.CacheSize != 1 || st.Completed != 3 {
		t.Errorf("stats = %+v, want epoch=1 cache_size=1 completed=3", st)
	}
}

// TestDedupCoalescesIdentical holds one query's batch inside the gate and
// submits the same query twice more: both must coalesce onto the in-flight
// slot (no extra admission, no extra batch) and all three tickets must
// complete with the one execution's values.
func TestDedupCoalescesIdentical(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 1
		c.Engine = gate
	})
	g := testGraph()
	q := queries.Query{Kernel: queries.BFS, Source: 3}

	t1, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // t1's batch is executing (held at the gate)
	t2, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	for _, tk := range []*Ticket{t1, t2, t3} {
		mustValues(t, g, tk)
		if e := tk.ResultEpoch(); e != 0 {
			t.Errorf("coalesced ticket epoch = %d, want 0", e)
		}
	}
	// A fourth identical submission after completion hits the cache.
	t4, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	mustValues(t, g, t4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Batches != 1 || st.DedupCoalesced != 2 || st.Admitted != 1 {
		t.Errorf("stats = %+v, want batches=1 dedup_coalesced=2 admitted=1", st)
	}
	if st.Completed != 4 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want completed=4 cache_hits=1", st)
	}
}

// TestSourceFreeKernelsCoalesceAcrossSources pins the shared computation
// key (queries.KeyOf) on the serving path: with the engine held, PageRank
// from two different sources coalesces onto one slot and runs one lane,
// while BFS and SSSP on one source stay two lanes; once it has completed,
// PageRank from a third source is a cache hit. Every ticket keeps its own
// query and gets the serial golden of it.
func TestSourceFreeKernelsCoalesceAcrossSources(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	col := telemetry.NewCollector()
	s := startServer(t, clk, func(c *Config) {
		c.Engine = gate
		c.Telemetry = col
	})
	g := testGraph()
	ctx := context.Background()
	mustGolden := func(tk *Ticket) {
		t.Helper()
		vals, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("ticket %v: %v", tk.Query(), err)
		}
		want := oracle.GoldenValues(g, tk.Query())
		for v := range want {
			if vals[v] != want[v] {
				t.Fatalf("ticket %v: vertex %d = %v, golden %v", tk.Query(), v, vals[v], want[v])
			}
		}
	}
	submit := func(q queries.Query) *Ticket {
		t.Helper()
		tk, err := s.Submit(ctx, q)
		if err != nil {
			t.Fatalf("submit %v: %v", q, err)
		}
		if tk.Query() != q {
			t.Fatalf("ticket query = %v, want %v", tk.Query(), q)
		}
		return tk
	}

	held := hold(t, s, gate, queries.Query{Kernel: queries.BFS, Source: 8})
	tks := []*Ticket{
		submit(queries.Query{Kernel: queries.PageRank, Source: 0}),
		submit(queries.Query{Kernel: queries.PageRank, Source: 4}),
		submit(queries.Query{Kernel: queries.BFS, Source: 2}),
		submit(queries.Query{Kernel: queries.SSSP, Source: 2}),
	}
	if st := s.Stats(); st.DedupCoalesced != 1 || st.Admitted != 4 {
		t.Fatalf("stats while held = %+v, want dedup_coalesced=1 admitted=4", st)
	}
	close(gate.release)
	mustGolden(held)
	for _, tk := range tks {
		mustGolden(tk)
	}
	// Lanes that ran: the held BFS, one PageRank, BFS(v2) and SSSP(v2).
	if got := col.Snapshot().Counters.Queries; got != 4 {
		t.Errorf("lanes run = %d, want 4", got)
	}

	batches := s.Stats().Batches
	hit := submit(queries.Query{Kernel: queries.PageRank, Source: 7})
	mustGolden(hit)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Batches != batches || st.DedupCoalesced != 1 {
		t.Errorf("stats = %+v, want cache_hits=1, no batch after %d, dedup_coalesced=1", st, batches)
	}
}

// TestAffinityAdmissionReorders proves admission ranking changes batch
// composition: with the engine held busy and four queries from two
// affinity classes queued interleaved (A B A B), the affinity method must
// dispatch them as [A A] then [B B] — closestHV order — not arrival order.
func TestAffinityAdmissionReorders(t *testing.T) {
	g := testGraph()
	prof := align.NewProfile(g, align.DefaultHubCount, 0)
	// Affinity classes on the paper graph: sources 0 and 1 share a low
	// arrival estimate, 4 and 5 a higher one. Guard the fixture so a profile
	// change fails loudly instead of making the assertions vacuous.
	a0, a1 := prof.ArrivalEstimate(0), prof.ArrivalEstimate(1)
	b0, b1 := prof.ArrivalEstimate(4), prof.ArrivalEstimate(5)
	if a0 != a1 || b0 != b1 || a0 >= b0 {
		t.Fatalf("fixture: estimates (0,1)=(%d,%d) (4,5)=(%d,%d), want two distinct classes", a0, a1, b0, b1)
	}

	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) {
		c.Method = systems.GlignBatch // affinity policy, unaligned engine
		c.BatchSize = 2
		c.Profile = prof
		c.Engine = gate
	})
	ctx := context.Background()
	q := func(src int) queries.Query { return queries.Query{Kernel: queries.SSSP, Source: graph.VertexID(src)} }

	// The held warmup occupies the engine, so the four test queries pile up
	// in the queue, where admission ranking sees them all at once.
	hold(t, s, gate, q(7))
	var tickets []*Ticket
	for _, src := range []int{0, 4, 1, 5} { // A B A B arrival order
		tk, err := s.Submit(ctx, q(src))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}

	gate.release <- struct{}{} // finish the held warmup; the loop takes test batch 1
	batchA := <-gate.entered
	gate.release <- struct{}{}
	batchB := <-gate.entered
	gate.release <- struct{}{}

	asSet := func(srcs []graph.VertexID) map[graph.VertexID]bool {
		m := make(map[graph.VertexID]bool, len(srcs))
		for _, v := range srcs {
			m[v] = true
		}
		return m
	}
	if sa := asSet(batchA); len(batchA) != 2 || !sa[0] || !sa[1] {
		t.Errorf("first ranked batch = %v, want {0 1} (class A)", batchA)
	}
	if sb := asSet(batchB); len(batchB) != 2 || !sb[4] || !sb[5] {
		t.Errorf("second ranked batch = %v, want {4 5} (class B)", batchB)
	}
	for _, tk := range tickets {
		mustValues(t, g, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Ranking [0 4 1 5] -> [0 1 4 5] displaces exactly the middle two.
	if st := s.Stats(); st.AdmissionReorders != 2 {
		t.Errorf("admission_reorders = %d, want 2", st.AdmissionReorders)
	}
}

// TestFCFSAdmissionKeepsArrivalOrder is the control for the reorder test:
// the same interleaved arrivals under an FCFS method (Glign-Intra) dispatch
// in arrival order with zero reorders. The method alone decides whether the
// pending queue is ranked.
func TestFCFSAdmissionKeepsArrivalOrder(t *testing.T) {
	g := testGraph()
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) {
		c.Method = systems.GlignIntra
		c.BatchSize = 2
		c.Engine = gate
	})
	ctx := context.Background()
	q := func(src int) queries.Query { return queries.Query{Kernel: queries.SSSP, Source: graph.VertexID(src)} }

	hold(t, s, gate, q(7))
	var tickets []*Ticket
	for _, src := range []int{0, 4, 1, 5} {
		tk, err := s.Submit(ctx, q(src))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	gate.release <- struct{}{}
	// FCFS admission takes the arrival prefix [0 4]; composition (not order
	// within the batch) is asserted, as in the reorder test.
	batch1 := <-gate.entered
	gate.release <- struct{}{}
	batch2 := <-gate.entered
	gate.release <- struct{}{}
	has := func(srcs []graph.VertexID, want ...graph.VertexID) bool {
		if len(srcs) != len(want) {
			return false
		}
		m := map[graph.VertexID]bool{}
		for _, v := range srcs {
			m[v] = true
		}
		for _, w := range want {
			if !m[w] {
				return false
			}
		}
		return true
	}
	if !has(batch1, 0, 4) || !has(batch2, 1, 5) {
		t.Errorf("FCFS admission batches = %v, %v, want {0 4} then {1 5}", batch1, batch2)
	}
	for _, tk := range tickets {
		mustValues(t, g, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.AdmissionReorders != 0 {
		t.Errorf("admission_reorders = %d, want 0 under FCFS admission", st.AdmissionReorders)
	}
}

// TestShedLowTierFirst pins the overload policy: at capacity, a high-tier
// arrival sheds the newest queued low-tier query (never an older one, never
// a normal-tier one while a low is available), a low-tier arrival at
// capacity is rejected outright, and every shed ticket completes with
// ErrShed while everything else still executes.
func TestShedLowTierFirst(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 1
		c.QueueCapacity = 4
		c.Engine = gate
	})
	g := testGraph()
	ctx := context.Background()
	sub := func(src int, tier Tier) (*Ticket, error) {
		return s.SubmitWith(ctx, queries.Query{Kernel: queries.SSSP, Source: graph.VertexID(src)}, SubmitOptions{Tier: tier})
	}

	// n0 executes (held at the gate): it has left the queue, so the capacity
	// arithmetic below is exact.
	n0 := hold(t, s, gate, queries.Query{Kernel: queries.SSSP, Source: 0})

	// Fill to capacity: l1 l2 l3 n1 (a queue of 4).
	l1, err := sub(1, TierLow)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := sub(2, TierLow)
	if err != nil {
		t.Fatal(err)
	}
	l3, err := sub(3, TierLow)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := sub(4, TierNormal)
	if err != nil {
		t.Fatal(err)
	}
	if tk := l3; tk.Tier() != TierLow {
		t.Fatalf("ticket tier = %v, want low", tk.Tier())
	}

	// High arrival at capacity: the newest low (l3) is sacrificed — not l1
	// or l2 (older lows), not n1 (higher tier).
	h1, err := sub(5, TierHigh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l3.Wait(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("shed victim: err = %v, want ErrShed", err)
	}
	// Low arrival at capacity: nothing strictly below low — rejected.
	if _, err := sub(6, TierLow); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("low at capacity: err = %v, want ErrQueueFull", err)
	}

	close(gate.release)
	for _, tk := range []*Ticket{n0, l1, l2, n1, h1} {
		mustValues(t, g, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Shed != 1 || len(st.ShedByTier) != NumTiers || st.ShedByTier[0] != 1 || st.ShedByTier[1] != 0 || st.ShedByTier[2] != 0 {
		t.Errorf("shed stats = shed=%d by_tier=%v, want 1 shed attributed to low", st.Shed, st.ShedByTier)
	}
	if st.RejectedFull != 1 || st.Completed != 5 {
		t.Errorf("stats = %+v, want rejected_full=1 completed=5", st)
	}
}

// TestFullBatchBehindBusyEngineSheds queues a full batch of two low-tier
// queries behind a held batch at QueueCapacity 2: nothing is taken off the
// queue while the engine runs, so both stay sheddable, and a high-tier
// arrival sheds the newer low instead of being rejected.
func TestFullBatchBehindBusyEngineSheds(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 2
		c.QueueCapacity = 2
		c.Engine = gate
	})
	g := testGraph()
	ctx := context.Background()
	sub := func(src int, tier Tier) *Ticket {
		t.Helper()
		tk, err := s.SubmitWith(ctx, queries.Query{Kernel: queries.BFS, Source: graph.VertexID(src)}, SubmitOptions{Tier: tier})
		if err != nil {
			t.Fatalf("submit v%d at tier %v: %v", src, tier, err)
		}
		return tk
	}

	held := hold(t, s, gate, queries.Query{Kernel: queries.BFS, Source: 8})
	older, newer := sub(0, TierLow), sub(1, TierLow)
	high := sub(2, TierHigh)
	if _, err := newer.Wait(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("newer low: err = %v, want ErrShed", err)
	}
	close(gate.release)
	for _, tk := range []*Ticket{held, older, high} {
		mustValues(t, g, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Shed != 1 || st.ShedByTier[0] != 1 || st.RejectedFull != 0 || st.Completed != 3 {
		t.Errorf("stats = %+v, want shed=1 (low) rejected_full=0 completed=3", st)
	}
}

// TestDedupTierPromotion pins that a high-tier joiner promotes its coalesced
// slot: the promoted slot stops being sheddable by a later normal arrival.
// A high-tier joiner of a slot that is already executing gets that slot's
// values and leaves no trace in the admission population: once everything is
// served, a fresh high-tier arrival fits the capacity of one.
func TestDedupTierPromotion(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 4 // nothing flushes by size; queue holds everything
		c.QueueCapacity = 1
		c.Engine = gate
	})
	g := testGraph()
	ctx := context.Background()
	q := queries.Query{Kernel: queries.BFS, Source: 6}

	// The held query has left the queue once its batch is
	// inside the gate, and keeps the engine busy so the rest stays queued.
	held := hold(t, s, gate, queries.Query{Kernel: queries.BFS, Source: 8})
	heldDup, err := s.SubmitWith(ctx, held.Query(), SubmitOptions{Tier: TierHigh})
	if err != nil {
		t.Fatal(err)
	}
	low, err := s.SubmitWith(ctx, q, SubmitOptions{Tier: TierLow})
	if err != nil {
		t.Fatal(err)
	}
	// A high-tier duplicate coalesces (capacity is full, but joins are free)
	// and promotes the slot to high.
	high, err := s.SubmitWith(ctx, q, SubmitOptions{Tier: TierHigh})
	if err != nil {
		t.Fatal(err)
	}
	// A normal arrival at capacity can no longer shed the promoted slot.
	if _, err := s.Submit(ctx, queries.Query{Kernel: queries.BFS, Source: 7}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("normal vs promoted slot: err = %v, want ErrQueueFull", err)
	}
	close(gate.release)
	mustValues(t, g, held)
	mustValues(t, g, heldDup)
	mustValues(t, g, low)
	mustValues(t, g, high)
	fresh, err := s.SubmitWith(ctx, queries.Query{Kernel: queries.BFS, Source: 5}, SubmitOptions{Tier: TierHigh})
	if err != nil {
		t.Fatalf("fresh high on an empty server: %v", err)
	}
	mustValues(t, g, fresh)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DedupCoalesced != 2 || st.Shed != 0 || st.RejectedFull != 1 {
		t.Errorf("stats = %+v, want dedup_coalesced=2 shed=0 rejected_full=1", st)
	}
}

// TestServeEndToEndSession is the scripted whole-contract session: populate,
// cache-hit, coalesce, invalidate, shed — one server, every phase asserted,
// and the final telemetry snapshot archived as JSON when
// GLIGN_SERVE_TELEMETRY_OUT is set (verify.sh points it under results/).
func TestServeEndToEndSession(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	tel := telemetry.NewCollector()
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 2
		c.QueueCapacity = 4
		c.Telemetry = tel
		c.Engine = gate
	})
	g := testGraph()
	ctx := context.Background()
	sssp := func(src int) queries.Query { return queries.Query{Kernel: queries.SSSP, Source: graph.VertexID(src)} }
	bfs := func(src int) queries.Query { return queries.Query{Kernel: queries.BFS, Source: graph.VertexID(src)} }

	// Phase 1 — populate: four distinct queries in three batches, the held
	// one, a size batch behind it and the idle flush of the last.
	warm := []*Ticket{hold(t, s, gate, sssp(0))}
	for _, src := range []int{1, 2, 3} {
		tk, err := s.Submit(ctx, sssp(src))
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, tk)
	}
	gate.release <- struct{}{}
	for _, want := range []int{2, 1} {
		if srcs := <-gate.entered; len(srcs) != want {
			t.Fatalf("phase 1 batch = %v, want size %d", srcs, want)
		}
		gate.release <- struct{}{}
	}
	for _, tk := range warm {
		mustValues(t, g, tk)
	}
	if st := s.Stats(); st.Batches != 3 || st.CacheSize != 4 {
		t.Fatalf("phase 1 stats = %+v, want batches=3 cache_size=4", st)
	}

	// Phase 2 — cache: three repeats complete instantly, no new batch.
	for _, src := range []int{0, 1, 2} {
		tk, err := s.Submit(ctx, sssp(src))
		if err != nil {
			t.Fatal(err)
		}
		mustValues(t, g, tk)
		if e := tk.ResultEpoch(); e != 0 {
			t.Fatalf("phase 2 epoch = %d, want 0", e)
		}
	}
	if st := s.Stats(); st.CacheHits != 3 || st.Batches != 3 {
		t.Fatalf("phase 2 stats = %+v, want cache_hits=3 batches=3", st)
	}

	// Phase 3 — dedup: the same new query twice coalesces to one slot, queued
	// or already at the gate.
	d1, err := s.Submit(ctx, sssp(4))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Submit(ctx, sssp(4))
	if err != nil {
		t.Fatal(err)
	}
	if srcs := <-gate.entered; len(srcs) != 1 || srcs[0] != 4 {
		t.Fatalf("phase 3 batch = %v, want [4]", srcs)
	}
	gate.release <- struct{}{}
	mustValues(t, g, d1)
	mustValues(t, g, d2)
	if st := s.Stats(); st.DedupCoalesced != 1 || st.Batches != 4 {
		t.Fatalf("phase 3 stats = %+v, want dedup_coalesced=1 batches=4", st)
	}

	// Phase 4 — invalidation: bump the epoch, a previously cached query
	// recomputes and reports the new epoch.
	if e := s.BumpEpoch(); e != 1 {
		t.Fatalf("BumpEpoch = %d, want 1", e)
	}
	r1, err := s.Submit(ctx, sssp(0))
	if err != nil {
		t.Fatal(err)
	}
	if srcs := <-gate.entered; len(srcs) != 1 || srcs[0] != 0 {
		t.Fatalf("phase 4 batch = %v, want [0]", srcs)
	}
	gate.release <- struct{}{}
	mustValues(t, g, r1)
	if e := r1.ResultEpoch(); e != 1 {
		t.Fatalf("phase 4 epoch = %d, want 1", e)
	}
	if st := s.Stats(); st.CacheInvalidations != 1 || st.Epoch != 1 {
		t.Fatalf("phase 4 stats = %+v, want cache_invalidations=1 epoch=1", st)
	}

	// Phase 5 — shedding: hold the engine with one batch at the gate, fill
	// the queue, then let a high arrival shed the newest low.
	busy := []*Ticket{hold(t, s, gate, bfs(5))}
	for _, src := range []int{6, 7} {
		tk, err := s.Submit(ctx, bfs(src))
		if err != nil {
			t.Fatal(err)
		}
		busy = append(busy, tk)
	}

	lowA, err := s.SubmitWith(ctx, bfs(0), SubmitOptions{Tier: TierLow})
	if err != nil {
		t.Fatal(err)
	}
	lowB, err := s.SubmitWith(ctx, bfs(1), SubmitOptions{Tier: TierLow})
	if err != nil {
		t.Fatal(err)
	}
	highT, err := s.SubmitWith(ctx, bfs(2), SubmitOptions{Tier: TierHigh})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lowB.Wait(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("phase 5 victim: err = %v, want ErrShed", err)
	}
	if _, err := s.SubmitWith(ctx, bfs(3), SubmitOptions{Tier: TierLow}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("phase 5 low at capacity: err = %v, want ErrQueueFull", err)
	}
	close(gate.release)
	busy = append(busy, lowA, highT)
	for _, tk := range busy {
		mustValues(t, g, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Shed != 1 || st.ShedByTier[0] != 1 || st.RejectedFull != 1 {
		t.Errorf("phase 5 stats = %+v, want shed=1 (low) rejected_full=1", st)
	}
	// Ledger: every submission is accounted exactly once.
	accounted := st.Admitted + st.RejectedFull + st.RejectedClosed + st.CacheHits + st.DedupCoalesced
	if st.Submitted != accounted {
		t.Errorf("ledger: submitted=%d != admitted+rejected+hits+coalesced=%d", st.Submitted, accounted)
	}
	snap := tel.Snapshot()
	if snap.Serving == nil || snap.Serving.CacheHits != 3 {
		t.Errorf("telemetry serving section = %+v, want cache_hits=3", snap.Serving)
	}
	if out := os.Getenv("GLIGN_SERVE_TELEMETRY_OUT"); out != "" {
		raw, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatalf("marshal telemetry: %v", err)
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			t.Fatalf("write %s: %v", out, err)
		}
	}
}

// TestServedEqualsOfflineWithCache is the in-package cached-replay
// differential: the same buffer submitted twice must return byte-identical
// value vectors on the cached pass, with zero additional engine batches.
func TestServedEqualsOfflineWithCache(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	s := startServer(t, clk, func(c *Config) {
		c.Method = systems.Glign
		c.BatchSize = 3
	})
	g := testGraph()
	ctx := context.Background()
	buf := make([]queries.Query, 6)
	for i := range buf {
		buf[i] = queries.Query{Kernel: queries.SSWP, Source: graph.VertexID(i)}
	}
	pass := func(label string) [][]queries.Value {
		tks := make([]*Ticket, len(buf))
		for i, q := range buf {
			tk, err := s.Submit(ctx, q)
			if err != nil {
				t.Fatalf("%s submit %d: %v", label, i, err)
			}
			tks[i] = tk
		}
		out := make([][]queries.Value, len(buf))
		for i, tk := range tks {
			vals, err := tk.Wait(ctx)
			if err != nil {
				t.Fatalf("%s query %d: %v", label, i, err)
			}
			out[i] = vals
		}
		return out
	}
	pass1 := pass("pass 1")
	batchesAfter1 := s.Stats().Batches
	pass2 := pass("pass 2 (cached)")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Batches != batchesAfter1 {
		t.Errorf("cached pass ran %d extra batches", st.Batches-batchesAfter1)
	}
	if st.CacheHits != int64(len(buf)) {
		t.Errorf("cache_hits = %d, want %d", st.CacheHits, len(buf))
	}
	for i := range buf {
		want := oracle.ReferenceRun(g, buf[i])
		for v := range want {
			if pass1[i][v] != want[v] {
				t.Fatalf("pass 1 query %d vertex %d = %v, want %v", i, v, pass1[i][v], want[v])
			}
			if pass2[i][v] != pass1[i][v] {
				t.Fatalf("cached query %d vertex %d = %v, differs from computed %v", i, v, pass2[i][v], pass1[i][v])
			}
		}
	}
}

// TestResultsNeverAliasTheArena pins what SERVING.md promises about result
// vectors now that the engine's value array passes from batch to batch
// (core.Arena): the vectors fanned out to waiters — of a batch an epoch bump
// overlapped too, which are never cached — and the vectors the cache holds are
// copies, so the batches that follow, which overwrite that array, leave them
// as they were. Every pair runs as one two-lane batch behind a held one-lane
// batch, and all run in the cells of the one array.
func TestResultsNeverAliasTheArena(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	gate.inner = core.GlignIntra
	s := startServer(t, clk, func(c *Config) {
		c.Method = systems.GlignIntra
		c.Engine = gate
		c.BatchSize = 2 // a pair queued behind the held batch flushes by size
	})
	g := testGraph()
	type held struct {
		q    queries.Query
		vals []queries.Value
	}
	var all []held
	// runPair holds a fresh SSWP query at the gate so the pair queues behind
	// it, runs the two queries as one batch, calling mid while the batch is
	// inside the engine, and keeps the vectors its waiters were handed.
	plugs := 0
	runPair := func(a, b queries.Query, mid func()) {
		t.Helper()
		tks := []*Ticket{hold(t, s, gate, queries.Query{Kernel: queries.SSWP, Source: graph.VertexID(plugs)})}
		plugs++
		for _, q := range []queries.Query{a, b} {
			tk, err := s.Submit(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		gate.release <- struct{}{}
		if srcs := <-gate.entered; len(srcs) != 2 {
			t.Fatalf("pair batch = %v, want 2 lanes", srcs)
		}
		if mid != nil {
			mid()
		}
		gate.release <- struct{}{}
		for _, tk := range tks {
			vals, err := tk.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, held{tk.Query(), vals})
		}
	}
	checkHeld := func(when string) {
		t.Helper()
		for _, h := range all {
			want := oracle.ReferenceRun(g, h.q)
			for v := range want {
				if h.vals[v] != want[v] {
					t.Fatalf("%s: the vector handed out for %v reads %v at vertex %d, want %v", when, h.q, h.vals[v], v, want[v])
				}
			}
		}
	}

	sssp := func(src graph.VertexID) queries.Query { return queries.Query{Kernel: queries.SSSP, Source: src} }
	bfs := func(src graph.VertexID) queries.Query { return queries.Query{Kernel: queries.BFS, Source: src} }
	runPair(sssp(0), sssp(1), nil)
	runPair(bfs(2), sssp(3), func() { s.BumpEpoch() }) // fanned out, not cached
	checkHeld("after the bumped batch")
	if st := s.Stats(); st.CacheSize != 4 || st.Epoch != 1 {
		t.Fatalf("stats = %+v, want the two held queries' and the first pair's 4 entries and epoch 1", st)
	}
	runPair(sssp(4), bfs(5), nil) // cached at epoch 1
	runPair(bfs(0), bfs(1), nil)  // the next batch, over the same cells
	checkHeld("after two more batches")

	// The cached vectors of the batch before last, read back through a hit.
	batches := s.Stats().Batches
	for _, q := range []queries.Query{sssp(4), bfs(5)} {
		tk, err := s.Submit(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		mustValues(t, g, tk)
	}
	if st := s.Stats(); st.Batches != batches || st.CacheHits != 2 {
		t.Fatalf("stats = %+v, want 2 cache hits and still %d batches", st, batches)
	}
	close(gate.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBumpWhileQueuedCachesTheNewerSlot pins the epoch-bump corner of the
// key table. A query admitted at epoch 0 is still queued when the epoch is
// bumped; an equivalent query arriving after the bump is not joined to it
// but gets its own slot. The older slot then runs and answers its waiter,
// but its entry has been taken over, so its result is not cached: a repeat
// arriving between the two completions joins the newer slot, and only the
// newer slot's vector is what later hits are served.
func TestBumpWhileQueuedCachesTheNewerSlot(t *testing.T) {
	gate := newGateEngine()
	s := startServer(t, NewFakeClock(time.Unix(0, 0)), func(c *Config) {
		c.BatchSize = 1
		c.Engine = gate
	})
	g := testGraph()
	ctx := context.Background()
	q := queries.Query{Kernel: queries.SSSP, Source: 2}
	submit := func() *Ticket {
		t.Helper()
		tk, err := s.Submit(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	wait := func(tk *Ticket) []queries.Value {
		t.Helper()
		mustValues(t, g, tk)
		vals, _ := tk.Wait(ctx)
		return vals
	}

	plug := hold(t, s, gate, queries.Query{Kernel: queries.BFS, Source: 0})
	older := submit() // queued behind the plug at epoch 0
	if e := s.BumpEpoch(); e != 1 {
		t.Fatalf("BumpEpoch = %d, want 1", e)
	}
	newer := submit() // epoch 1: a slot of its own
	if st := s.Stats(); st.Admitted != 3 || st.DedupCoalesced != 0 || st.QueueDepth != 2 {
		t.Fatalf("after the bump: stats = %+v, want admitted=3 dedup_coalesced=0 queue_depth=2", st)
	}

	gate.release <- struct{}{} // the plug
	wait(plug)
	if srcs := <-gate.entered; len(srcs) != 1 || srcs[0] != q.Source {
		t.Fatalf("second batch = %v, want the older slot [%d]", srcs, q.Source)
	}
	gate.release <- struct{}{} // the older slot, run at epoch 1
	olderVals := wait(older)
	if e := older.ResultEpoch(); e != 1 {
		t.Fatalf("older slot's result epoch = %d, want 1 (its run started after the bump)", e)
	}
	if srcs := <-gate.entered; len(srcs) != 1 || srcs[0] != q.Source {
		t.Fatalf("third batch = %v, want the newer slot [%d]", srcs, q.Source)
	}

	// Between the two completions: the repeat joins the newer slot.
	repeat := submit()
	select {
	case <-repeat.Done():
		t.Fatal("repeat completed before the newer slot did: the older slot's result was cached")
	default:
	}
	if st := s.Stats(); st.DedupCoalesced != 1 || st.CacheHits != 0 || st.CacheSize != 0 {
		t.Fatalf("repeat: stats = %+v, want dedup_coalesced=1 cache_hits=0 cache_size=0", st)
	}
	gate.release <- struct{}{} // the newer slot
	newerVals := wait(newer)
	if repeatVals := wait(repeat); &repeatVals[0] != &newerVals[0] {
		t.Fatal("the repeat was not answered with the newer slot's vector")
	}

	// Only the newer slot's result is cached.
	hit := submit()
	hitVals := wait(hit)
	if &hitVals[0] != &newerVals[0] || &hitVals[0] == &olderVals[0] {
		t.Fatal("the cached vector is not the newer slot's")
	}
	if e := hit.ResultEpoch(); e != 1 {
		t.Fatalf("hit's result epoch = %d, want 1", e)
	}
	close(gate.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Batches != 3 || st.CacheHits != 1 || st.CacheSize != 1 || st.Completed != 5 {
		t.Errorf("stats = %+v, want batches=3 cache_hits=1 cache_size=1 completed=5", st)
	}
}
