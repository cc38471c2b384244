package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/sched"
	"github.com/glign/glign/internal/systems"
	"github.com/glign/glign/internal/telemetry"
)

// Typed admission and lifecycle errors. All are sentinel values so callers
// dispatch with errors.Is (ErrShed lives in shed.go beside its policy).
var (
	// ErrQueueFull is the backpressure rejection: the queue reached
	// Config.QueueCapacity and no lower-tier victim was available to shed.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrClosed rejects submissions arriving after Shutdown/Close began.
	ErrClosed = errors.New("serve: server closed to new queries")
	// ErrDeadline completes a ticket whose deadline expired while it was
	// still queued (never mid-execution: once batched, a query runs to its
	// fixed point and returns its values).
	ErrDeadline = errors.New("serve: deadline expired before the query was batched")
)

// defaultCacheCapacity is the result-cache entry bound when
// Config.CacheCapacity is zero.
const defaultCacheCapacity = 1024

// Config parameterizes a Server. The zero value serves full-Glign batches of
// 64 with a 1024-query admission bound on the wall clock, a 1024-entry
// result cache, in-flight dedup, and the method's own admission ordering.
// There is no batching window: an idle engine is handed whatever is queued
// at once, and a busy engine's run is the window of the next batch.
type Config struct {
	// Method is the evaluation method (systems method names; default
	// systems.Glign). It fixes the batching policy, the engine, and whether
	// delayed-start alignment vectors are applied — identical semantics to
	// an offline systems.Run of the same method.
	Method string
	// BatchSize is the size cap |B|: once this many queries are queued, the
	// serving loop takes a batch of this many instead of the whole queue
	// (default 64).
	BatchSize int
	// QueueCapacity bounds the queued slots; at the bound Submit sheds a
	// strictly lower-tier queued query if one exists and otherwise rejects
	// with ErrQueueFull (default 1024). Coalesced duplicates share one slot
	// and do not count again.
	QueueCapacity int
	// CacheCapacity bounds the computation-keyed result cache in entries:
	// 0 means the default (1024), negative disables caching entirely.
	// Entries carry the epoch they were computed at and are dropped on
	// mismatch (see BumpEpoch).
	CacheCapacity int
	// Workers bounds intra-batch parallelism (<= 0: GOMAXPROCS); Pool is
	// the work-stealing scheduler the engines run on (nil: shared default).
	Workers int
	Pool    *par.Pool
	// Profile supplies closestHV for the aligned/affinity methods; built on
	// demand when nil and the method needs it.
	Profile *align.Profile
	// Telemetry, when non-nil, receives per-iteration engine records for
	// every batch plus the serving section (Collector.ObserveServing).
	Telemetry *telemetry.Collector
	// Clock is the server's time source (nil: the wall clock). Tests inject
	// a FakeClock to drive deadlines deterministically.
	Clock Clock
	// Engine, when non-nil, overrides the method's engine — the hook the
	// deterministic tests use to gate batch execution.
	Engine core.Engine
}

// SubmitOptions carries the per-query knobs of SubmitWith. The zero value
// means no deadline at TierNormal.
type SubmitOptions struct {
	// Timeout, when positive, sets a deadline of now+Timeout on the
	// server's clock: a query the serving loop takes after the deadline
	// completes with ErrDeadline instead of executing.
	Timeout time.Duration
	// Tier is the query's priority class (default TierNormal). Under
	// overload, queued lower tiers are shed to admit higher ones.
	Tier Tier
}

// Ticket is the handle of one submitted query: it completes exactly once,
// with either the query's full result vector or a typed error. Result
// vectors may be shared with other coalesced waiters and with the result
// cache — treat them as immutable.
type Ticket struct {
	query    queries.Query
	tier     Tier
	ctx      context.Context
	admitted time.Time
	deadline time.Time // zero: none

	done   chan struct{}
	values []queries.Value
	epoch  int64
	err    error
}

// Done is closed when the ticket has completed.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the ticket completes or ctx is done, returning the
// query's per-vertex result vector. The ticket keeps completing in the
// background if Wait returns early on ctx. The returned slice may be shared
// with the result cache and with coalesced waiters — do not mutate it.
func (t *Ticket) Wait(ctx context.Context) ([]queries.Value, error) {
	select {
	case <-t.done:
		return t.values, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Query returns the submitted query.
func (t *Ticket) Query() queries.Query { return t.query }

// Tier returns the query's priority tier.
func (t *Ticket) Tier() Tier { return t.tier }

// ResultEpoch returns the data epoch the ticket's result was computed at
// (the epoch of the cache entry on a hit, the epoch at execution start
// otherwise). Valid only after Done; -1 while pending or when the ticket
// completed with an error.
func (t *Ticket) ResultEpoch() int64 {
	select {
	case <-t.done:
		return t.epoch
	default:
		return -1
	}
}

// Server is the live query-serving loop. New starts one long-lived
// goroutine — the serving loop (admission queue -> batches -> engine ->
// ticket completion) — which Close joins after draining everything
// admitted. On top of the loop it is a traffic-shaping front end: one key
// table that caches results with epoch invalidation and dedups in-flight
// queries, affinity-aware admission ordering, and tiered load-shedding
// (SERVING.md is the contract).
type Server struct {
	g            *graph.Graph
	cfg          Config
	plan         systems.Plan
	prof         *align.Profile
	clk          Clock
	run          *telemetry.RunTrace
	affinityRank bool
	// arena carries the engine's batch state from one batch to the next
	// (core.Arena). Result vectors are copied out of it before any waiter or
	// the cache sees them (runBatch).
	arena core.Arena

	// epoch is the data epoch, the one value read without mu.
	epoch atomic.Int64

	// mu guards queue through occupancy.
	mu     sync.Mutex
	queue  []*slot
	keys   keyTable
	seq    int
	closed bool
	// stats holds the monotone totals; Stats fills in the gauges and
	// histograms of a copy.
	stats         telemetry.ServingMetrics
	admissionWait telemetry.Histogram
	occupancy     telemetry.Histogram

	wake chan struct{}
	// wg joins the serving loop: Add before the launch in New, Wait in Close
	// (TestServerCloseJoinsGoroutines holds it).
	wg      sync.WaitGroup
	started time.Time
}

// New validates cfg, resolves the method plan, and starts the server's
// serving loop. Close (or Shutdown+Close) must be called to join it.
func New(g *graph.Graph, cfg Config) (*Server, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, fmt.Errorf("serve: empty graph")
	}
	if cfg.Method == "" {
		cfg.Method = systems.Glign
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1024
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	prof := cfg.Profile
	if prof == nil && systems.NeedsProfile(cfg.Method) {
		prof = align.NewProfile(g, align.DefaultHubCount, cfg.Workers)
	}
	run := cfg.Telemetry.StartRun("serve:"+cfg.Method, "")
	plan, err := systems.PlanFor(cfg.Method, g, prof, systems.Config{
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
		Pool:      cfg.Pool,
	}, run)
	if err != nil {
		return nil, err
	}
	run.SetPolicy(plan.Policy.Name())
	if cfg.Engine != nil {
		plan.Engine = cfg.Engine
	}
	s := &Server{
		g:       g,
		cfg:     cfg,
		plan:    plan,
		prof:    prof,
		clk:     cfg.Clock,
		run:     run,
		keys:    keyTable{capacity: max(cfg.CacheCapacity, 0), entries: make(map[queries.Key]*entry)},
		stats:   telemetry.ServingMetrics{ShedByTier: make([]int64, NumTiers)},
		wake:    make(chan struct{}, 1),
		started: cfg.Clock.Now(),
	}
	if cfg.CacheCapacity == 0 {
		s.keys.capacity = defaultCacheCapacity
	}
	// The method decides the admission order: an affinity-batching method
	// ranks the pending queue, an FCFS method keeps arrival order.
	s.affinityRank = prof != nil && plan.Policy.Name() == (sched.Affinity{}).Name()
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// Submit admits one query with no deadline at TierNormal. See SubmitWith.
func (s *Server) Submit(ctx context.Context, q queries.Query) (*Ticket, error) {
	return s.SubmitWith(ctx, q, SubmitOptions{})
}

// SubmitWith admits one query and returns its ticket. The submission
// pipeline, in order and under one lock (SERVING.md has the state machine),
// reads the key table once for the query's computation key (queries.KeyOf):
//
//  1. a result computed at the current epoch completes the ticket
//     immediately (cache hit — no queueing, no deadline exposure);
//  2. a slot admitted at the current epoch and still pending takes the
//     ticket as a waiter (dedup — no extra capacity consumed, one execution
//     fans out to every waiter);
//  3. otherwise the query needs a new slot: at QueueCapacity a strictly
//     lower-tier queued query is shed to make room when one exists, else
//     the submission is rejected with ErrQueueFull.
//
// The context covers the queued phase — a ctx canceled before batching
// completes the ticket with ctx.Err(). Rejections are immediate and typed:
// ErrQueueFull at capacity, ErrClosed after shutdown began.
func (s *Server) SubmitWith(ctx context.Context, q queries.Query, opt SubmitOptions) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.validate(ctx, q, opt); err != nil {
		s.mu.Lock()
		s.stats.Submitted++
		s.mu.Unlock()
		return nil, err
	}
	now := s.clk.Now()
	t := &Ticket{query: q, tier: opt.Tier, ctx: ctx, admitted: now, done: make(chan struct{}), epoch: -1}
	if opt.Timeout > 0 {
		t.deadline = now.Add(opt.Timeout)
	}
	key := queries.KeyOf(q)

	s.mu.Lock()
	s.stats.Submitted++
	if s.closed {
		s.stats.RejectedClosed++
		s.mu.Unlock()
		return nil, ErrClosed
	}
	epoch := s.epoch.Load()
	e, stale := s.keys.get(key, epoch)
	if stale {
		s.stats.CacheInvalidations++
	}
	if e != nil && e.slot == nil {
		s.stats.CacheHits++
		s.stats.Completed++
		s.mu.Unlock()
		t.epoch = e.epoch
		s.finish(t, e.values, nil)
		s.observeServing()
		return t, nil
	}
	if s.keys.capacity > 0 {
		s.stats.CacheMisses++
	}
	if e != nil {
		e.slot.tickets = append(e.slot.tickets, t)
		e.slot.tier = max(e.slot.tier, opt.Tier)
		s.stats.DedupCoalesced++
		s.mu.Unlock()
		return t, nil
	}
	var victim *slot
	if len(s.queue) >= s.cfg.QueueCapacity {
		if victim = s.shedLocked(opt.Tier); victim == nil {
			s.stats.RejectedFull++
			s.mu.Unlock()
			return nil, ErrQueueFull
		}
	}
	sl := &slot{query: q, key: key, seq: s.seq, tier: opt.Tier, tickets: []*Ticket{t}}
	s.seq++
	s.queue = append(s.queue, sl)
	s.keys.entries[key] = &entry{epoch: epoch, slot: sl}
	s.stats.Admitted++
	s.mu.Unlock()
	if victim != nil {
		for _, vt := range victim.tickets {
			s.finish(vt, nil, ErrShed)
		}
	}
	s.signal()
	return t, nil
}

// validate rejects a submission the server cannot evaluate: no kernel, a
// source past the graph, an unknown tier, or an already-done context.
func (s *Server) validate(ctx context.Context, q queries.Query, opt SubmitOptions) error {
	switch {
	case q.Kernel == nil:
		return fmt.Errorf("serve: query has no kernel")
	case int(q.Source) >= s.g.NumVertices():
		return fmt.Errorf("serve: source v%d out of range (n=%d)", q.Source, s.g.NumVertices())
	case opt.Tier < TierLow || opt.Tier > TierHigh:
		return fmt.Errorf("serve: invalid tier %d", opt.Tier)
	}
	return ctx.Err()
}

// Epoch returns the server's current data epoch.
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// BumpEpoch advances the server's data epoch and returns the new value; it
// takes no lock. The hook for graph mutation layers: a key-table entry of
// an older epoch is never served or joined again — a cached result is
// dropped on its next lookup, and a pending slot stops accepting coalesced
// joiners — so queries admitted at different epochs never share a result.
// Slots already admitted still execute and answer their existing waiters
// (with the epoch their result was computed at), but a result whose
// execution overlapped a bump is not cached.
func (s *Server) BumpEpoch() int64 { return s.epoch.Add(1) }

// signal nudges the serving loop (capacity-1 channel: a pending nudge
// already covers any number of queued events, since the loop waits only
// once the queue is empty).
func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Shutdown stops admission immediately (subsequent Submits return ErrClosed)
// and asks the serving loop to drain: everything already admitted is still
// batched, executed, and completed. Idempotent; returns without waiting.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.signal()
}

// Close shuts the server down and waits until the drain finishes: the
// running batch completes, queued queries are taken as final batches
// (expired or canceled ones complete with their typed errors), and the
// serving loop joins. Safe to call more than once.
func (s *Server) Close() error {
	s.Shutdown()
	s.wg.Wait()
	s.run.Finish(s.clk.Now().Sub(s.started))
	s.observeServing()
	return nil
}

// loop is the serving loop, the server's one goroutine. Each turn it takes
// work off the queue under mu: a size-capped batch once BatchSize queries are
// queued (the whole queue ranked first when the method ranks and it holds
// more than one batch), and otherwise the whole queue. It runs what it took
// before it looks again, so an idle engine is served at once, what arrives
// during a batch leaves together when it returns, and a query behind a busy
// engine stays queued — sheddable, cancellable and subject to its deadline
// — until it is taken. It waits on wake only when the queue is empty, and
// returns once the server is closed and drained.
func (s *Server) loop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		// flushes counts the take by its trigger: the engine was idle
		// (window_flushes), the size cap, or the shutdown drain.
		take, flushes := s.queue, &s.stats.WindowFlushes
		switch {
		case len(s.queue) >= s.cfg.BatchSize:
			if s.affinityRank && len(s.queue) > s.cfg.BatchSize {
				s.rankPendingLocked()
			}
			take = append([]*slot(nil), s.queue[:s.cfg.BatchSize]...)
			s.queue = append(s.queue[:0], s.queue[s.cfg.BatchSize:]...)
			flushes = &s.stats.SizeFlushes
		case s.closed:
			s.queue = nil
			flushes = &s.stats.DrainFlushes
		default:
			s.queue = nil
		}
		closed := s.closed
		if len(take) > 0 {
			*flushes++
		}
		s.mu.Unlock()
		if len(take) == 0 {
			if closed {
				return
			}
			<-s.wake
			continue
		}
		s.flush(take)
	}
}

// flush resolves the canceled and deadline-expired waiters of the slots the
// loop took, then partitions the surviving slots with the method's batching
// policy and runs each batch in turn.
func (s *Server) flush(buf []*slot) {
	now := s.clk.Now()
	live := make([]*slot, 0, len(buf))
	for _, sl := range buf {
		if s.resolveDead(sl, now) {
			continue
		}
		live = append(live, sl)
	}
	if len(live) == 0 {
		return
	}
	qs := make([]queries.Query, len(live))
	for i, sl := range live {
		qs[i] = sl.query
	}
	// SplitParadigm keeps every batch paradigm-homogeneous: a live queue can
	// interleave monotone and iterate-to-convergence queries arbitrarily, but
	// engines evaluate the two under disjoint paths.
	for _, idx := range sched.SplitParadigm(qs, s.plan.Policy.MakeBatches(qs, s.cfg.BatchSize)) {
		slots := make([]*slot, len(idx))
		for i, bi := range idx {
			slots[i] = live[bi]
		}
		s.runBatch(slots)
	}
}

// finish completes a ticket exactly once; the channel close publishes the
// result fields to every waiter.
func (s *Server) finish(t *Ticket, vals []queries.Value, err error) {
	t.values, t.err = vals, err
	close(t.done)
}

// runBatch evaluates one batch on the plan's engine with the exact offline
// semantics: the plan's batch options (alignment vectors when the method is
// aligned), per-iteration telemetry into the server's run trace. Each slot's
// result is fanned out to all its waiters and kept as the key's cached result
// unless an epoch bump overlapped the execution (completeSlot).
func (s *Server) runBatch(slots []*slot) {
	qs := make([]queries.Query, len(slots))
	seqs := make([]int, len(slots))
	for i, sl := range slots {
		qs[i] = sl.query
		seqs[i] = sl.seq
	}
	opt := s.plan.BatchOptions(core.Options{Workers: s.cfg.Workers, Pool: s.cfg.Pool, Arena: &s.arena}, qs)
	epoch := s.epoch.Load()
	bt := s.run.StartBatch(s.plan.Engine.Name(), seqs, opt.Alignment)
	opt.Telemetry = bt
	start := s.clk.Now()
	br, err := s.plan.Engine.Run(s.g, qs, opt)
	bt.Finish(s.clk.Now().Sub(start))
	s.mu.Lock()
	s.stats.Batches++
	s.occupancy.Observe(int64(len(qs)))
	s.mu.Unlock()
	if err != nil {
		for _, sl := range slots {
			s.completeSlot(sl, nil, -1, fmt.Errorf("serve: batch failed: %w", err))
		}
	} else {
		// Fresh vectors, the cache's and the waiters' from here on; the value
		// array they were read from goes back for the next batch.
		all := br.AllQueryValues(s.cfg.Pool, s.cfg.Workers)
		br.Release()
		for i, sl := range slots {
			s.completeSlot(sl, all[i], epoch, nil)
		}
	}
	s.observeServing()
}

// Stats builds the current serving metrics snapshot. It is taken under the
// lock every counter moves under, so every snapshot is consistent
// (SERVING.md §8).
func (s *Server) Stats() *telemetry.ServingMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.stats
	m.ShedByTier = append([]int64(nil), s.stats.ShedByTier...)
	m.QueueDepth = int64(len(s.queue))
	m.Epoch = s.epoch.Load()
	m.CacheSize = int64(s.keys.lru.Len())
	m.AdmissionWaitNs = s.admissionWait.Snapshot()
	m.BatchOccupancy = s.occupancy.Snapshot()
	return &m
}

// observeServing refreshes the collector's serving section (after every
// batch, every cache hit, and at Close).
func (s *Server) observeServing() {
	if s.cfg.Telemetry == nil {
		return
	}
	s.cfg.Telemetry.ObserveServing(s.Stats())
}

// Method returns the server's evaluation method.
func (s *Server) Method() string { return s.cfg.Method }
