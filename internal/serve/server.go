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
	// ErrQueueFull is the backpressure rejection: the admitted-but-
	// undispatched population reached Config.QueueCapacity (or the query's
	// tier reached its per-tier bound) and no lower-tier victim was
	// available to shed.
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
// 64 on a 5ms window with a 1024-query admission bound on the wall clock,
// a 1024-entry result cache, in-flight dedup, and the method's own
// admission ordering.
type Config struct {
	// Method is the evaluation method (systems method names; default
	// systems.Glign). It fixes the batching policy, the engine, and whether
	// delayed-start alignment vectors are applied — identical semantics to
	// an offline systems.Run of the same method.
	Method string
	// BatchSize is the size cap |B|: the batcher flushes as soon as this
	// many queries are buffered, without waiting for the window (default
	// 64).
	BatchSize int
	// Window is how long the batcher waits after the first buffered query
	// before flushing a partial batch (default 5ms). The timer runs on
	// Clock.
	Window time.Duration
	// QueueCapacity bounds the admitted-but-undispatched population (queued
	// plus window-buffered slots); at the bound Submit sheds a strictly
	// lower-tier queued query if one exists and otherwise rejects with
	// ErrQueueFull (default 1024). Coalesced duplicates share one slot and
	// do not count again.
	QueueCapacity int
	// TierCapacities optionally bounds the queued population of each
	// priority tier on top of QueueCapacity (index 0 low, 1 normal, 2 high
	// — tierIndex order); 0 means no per-tier bound.
	TierCapacities [NumTiers]int
	// CacheCapacity bounds the source+kernel-keyed result cache in entries:
	// 0 means the default (1024), negative disables caching entirely.
	// Entries carry the epoch they were computed at and are dropped on
	// mismatch (see BumpEpoch).
	CacheCapacity int
	// AdmissionPolicy orders the pending queue when it exceeds one batch:
	// AdmissionFCFS, AdmissionAffinity, or empty to follow the method
	// (affinity methods rank, FCFS methods keep arrival order).
	AdmissionPolicy string
	// ReorderWindow is the affinity-batching reorder window B_w passed to
	// the method's policy (<= 0: the whole flushed buffer).
	ReorderWindow int
	// Workers bounds intra-batch parallelism (<= 0: GOMAXPROCS); Pool is
	// the work-stealing scheduler the engines run on (nil: shared default).
	Workers int
	Pool    *par.Pool
	// Profile supplies closestHV for the aligned/affinity methods; built on
	// demand when nil and the method (or AdmissionAffinity) needs it.
	Profile *align.Profile
	// Telemetry, when non-nil, receives per-iteration engine records for
	// every batch plus the serving section (Collector.ObserveServing).
	Telemetry *telemetry.Collector
	// Clock is the server's time source (nil: the wall clock). Tests inject
	// a FakeClock to drive windows and deadlines deterministically.
	Clock Clock
	// Engine, when non-nil, overrides the method's engine — the hook the
	// deterministic tests use to gate batch execution.
	Engine core.Engine
}

// SubmitOptions carries the per-query knobs of SubmitWith. The zero value
// means no deadline at TierNormal.
type SubmitOptions struct {
	// Timeout, when positive, sets a deadline of now+Timeout on the
	// server's clock: a query still queued when its next flush happens
	// after the deadline completes with ErrDeadline instead of executing.
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
	seq      int
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

// flush triggers, attributed in the serving telemetry.
type flushTrigger int

const (
	flushWindow flushTrigger = iota
	flushSize
	flushDrain
)

// formedBatch is one evaluation batch handed from the batcher to the
// executor: one slot per lane, each slot fanning out to its waiters.
type formedBatch struct {
	slots []*slot
}

// Server is the live query-serving loop. New starts two long-lived
// goroutines — the batcher (admission queue -> windowed batches) and the
// executor (batches -> engine -> ticket completion) — which Close joins
// after draining everything admitted. On top of the PR-5 loop it is a
// traffic-shaping front end: a result cache with epoch invalidation,
// in-flight dedup, affinity-aware admission ordering, and tiered
// load-shedding (SERVING.md is the contract).
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

	epoch atomic.Int64
	cache *resultCache // nil: caching disabled

	mu          sync.Mutex
	queue       []*slot
	inflight    map[cacheKey]*slot
	pending     int // admitted-but-undispatched slots (bounded by QueueCapacity)
	tierPending [NumTiers]int
	seq         int
	closed      bool

	wake    chan struct{}
	batches chan *formedBatch
	// wg joins the batcher and executor; Close waits on it — the
	// persistent-pool lifetime the waitjoin analyzer models (Add before the
	// launches here, Wait in Close).
	wg      sync.WaitGroup
	started time.Time

	stats         serveCounters
	admissionWait telemetry.Histogram
	occupancy     telemetry.Histogram
}

// serveCounters are the server's monotone totals (see ServingMetrics for
// field meanings).
type serveCounters struct {
	submitted, admitted          atomic.Int64
	rejectedFull, rejectedClosed atomic.Int64
	canceled, deadlineMisses     atomic.Int64
	completed, batches           atomic.Int64
	windowFlushes, sizeFlushes   atomic.Int64
	drainFlushes                 atomic.Int64

	cacheHits, cacheMisses             atomic.Int64
	cacheEvictions, cacheInvalidations atomic.Int64
	dedupCoalesced                     atomic.Int64
	admissionReorders                  atomic.Int64
	shed                               atomic.Int64
	shedByTier                         [NumTiers]atomic.Int64
}

// New validates cfg, resolves the method plan, and starts the server's
// batcher and executor goroutines. Close (or Shutdown+Close) must be called
// to join them.
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
	if cfg.Window <= 0 {
		cfg.Window = 5 * time.Millisecond
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1024
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	switch cfg.AdmissionPolicy {
	case "", AdmissionFCFS, AdmissionAffinity:
	default:
		return nil, fmt.Errorf("serve: unknown admission policy %q", cfg.AdmissionPolicy)
	}
	prof := cfg.Profile
	if prof == nil && (systems.NeedsProfile(cfg.Method) || cfg.AdmissionPolicy == AdmissionAffinity) {
		prof = align.NewProfile(g, align.DefaultHubCount, cfg.Workers)
	}
	run := cfg.Telemetry.StartRun("serve:"+cfg.Method, "")
	plan, err := systems.PlanFor(cfg.Method, g, prof, systems.Config{
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
		Pool:      cfg.Pool,
		Window:    cfg.ReorderWindow,
	}, run)
	if err != nil {
		return nil, err
	}
	run.SetPolicy(plan.Policy.Name())
	if cfg.Engine != nil {
		plan.Engine = cfg.Engine
	}
	s := &Server{
		g:        g,
		cfg:      cfg,
		plan:     plan,
		prof:     prof,
		clk:      cfg.Clock,
		run:      run,
		inflight: make(map[cacheKey]*slot),
		wake:     make(chan struct{}, 1),
		batches:  make(chan *formedBatch),
		started:  cfg.Clock.Now(),
	}
	switch cfg.AdmissionPolicy {
	case AdmissionAffinity:
		s.affinityRank = true
	case AdmissionFCFS:
		s.affinityRank = false
	default:
		s.affinityRank = prof != nil && plan.Policy.Name() == (sched.Affinity{}).Name()
	}
	if cfg.CacheCapacity >= 0 {
		capacity := cfg.CacheCapacity
		if capacity == 0 {
			capacity = defaultCacheCapacity
		}
		s.cache = newResultCache(capacity)
	}
	s.wg.Add(2)
	go s.batchLoop()
	go s.execLoop()
	return s, nil
}

// Submit admits one query with no deadline at TierNormal. See SubmitWith.
func (s *Server) Submit(ctx context.Context, q queries.Query) (*Ticket, error) {
	return s.SubmitWith(ctx, q, SubmitOptions{})
}

// SubmitTimeout admits one query with a deadline at TierNormal. A positive
// timeout sets a deadline of now+timeout on the server's clock. See
// SubmitWith.
func (s *Server) SubmitTimeout(ctx context.Context, q queries.Query, timeout time.Duration) (*Ticket, error) {
	return s.SubmitWith(ctx, q, SubmitOptions{Timeout: timeout})
}

// SubmitWith admits one query and returns its ticket. The submission
// pipeline, in order and under one lock (SERVING.md has the state machine):
//
//  1. a valid cache entry for the query's (kernel, source) at the current
//     epoch completes the ticket immediately (cache hit — no queueing, no
//     deadline exposure);
//  2. an identical pending query coalesces the ticket onto that query's
//     slot (dedup — no extra capacity consumed, one execution fans out to
//     every waiter);
//  3. otherwise the query needs a new slot: at QueueCapacity a strictly
//     lower-tier queued query is shed to make room when one exists, else
//     the submission is rejected with ErrQueueFull (likewise at a
//     configured per-tier bound).
//
// The context covers the queued phase — a ctx canceled before batching
// completes the ticket with ctx.Err(). Rejections are immediate and typed:
// ErrQueueFull at capacity, ErrClosed after shutdown began.
func (s *Server) SubmitWith(ctx context.Context, q queries.Query, opt SubmitOptions) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.stats.submitted.Add(1)
	if q.Kernel == nil {
		return nil, fmt.Errorf("serve: query has no kernel")
	}
	if int(q.Source) >= s.g.NumVertices() {
		return nil, fmt.Errorf("serve: source v%d out of range (n=%d)", q.Source, s.g.NumVertices())
	}
	if opt.Tier < TierLow || opt.Tier > TierHigh {
		return nil, fmt.Errorf("serve: invalid tier %d", opt.Tier)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	now := s.clk.Now()
	t := &Ticket{query: q, tier: opt.Tier, ctx: ctx, admitted: now, done: make(chan struct{}), epoch: -1}
	if opt.Timeout > 0 {
		t.deadline = now.Add(opt.Timeout)
	}
	key := keyOf(q)

	var victim *slot
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.stats.rejectedClosed.Add(1)
		return nil, ErrClosed
	}
	if vals, epoch, ok := s.cacheGetLocked(key); ok {
		s.mu.Unlock()
		s.stats.completed.Add(1)
		t.epoch = epoch
		s.finish(t, vals, nil)
		s.observeServing()
		return t, nil
	}
	if s.joinLocked(key, t) {
		s.mu.Unlock()
		s.stats.dedupCoalesced.Add(1)
		return t, nil
	}
	ti := tierIndex(opt.Tier)
	if bound := s.cfg.TierCapacities[ti]; bound > 0 && s.tierPending[ti] >= bound {
		s.mu.Unlock()
		s.stats.rejectedFull.Add(1)
		return nil, ErrQueueFull
	}
	if s.pending >= s.cfg.QueueCapacity {
		if victim = s.shedLocked(opt.Tier); victim == nil {
			s.mu.Unlock()
			s.stats.rejectedFull.Add(1)
			return nil, ErrQueueFull
		}
	}
	sl := &slot{query: q, key: key, seq: s.seq, tier: opt.Tier, tickets: []*Ticket{t}}
	t.seq = s.seq
	s.seq++
	s.queue = append(s.queue, sl)
	s.pending++
	s.tierPending[ti]++
	s.inflight[key] = sl
	s.mu.Unlock()
	if victim != nil {
		s.resolveShed(victim)
	}
	s.stats.admitted.Add(1)
	s.signal()
	return t, nil
}

// cacheGetLocked consults the result cache under the current epoch,
// counting hits, misses, and lazily invalidated stale entries. Must be
// called with s.mu held (the cache has its own lock; holding s.mu makes
// lookup-then-coalesce atomic against completeSlot's install-then-retire).
func (s *Server) cacheGetLocked(key cacheKey) ([]queries.Value, int64, bool) {
	if s.cache == nil {
		return nil, 0, false
	}
	vals, epoch, ok, stale := s.cache.get(key, s.epoch.Load())
	if stale {
		s.stats.cacheInvalidations.Add(1)
	}
	if ok {
		s.stats.cacheHits.Add(1)
	} else {
		s.stats.cacheMisses.Add(1)
	}
	return vals, epoch, ok
}

// cachePut installs a freshly computed result for the given epoch.
func (s *Server) cachePut(key cacheKey, vals []queries.Value, epoch int64) {
	if s.cache == nil {
		return
	}
	if s.cache.put(key, vals, epoch) {
		s.stats.cacheEvictions.Add(1)
	}
}

// Epoch returns the server's current data epoch.
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// BumpEpoch advances the server's data epoch and returns the new value.
// The hook for graph mutation layers: after a bump, every cache entry
// computed at an older epoch is dropped on its next lookup instead of being
// served, and pending/in-flight slots stop accepting coalesced joiners —
// queries admitted at different epochs never share a result. Slots already
// admitted still execute and answer their existing waiters (with the epoch
// their result was computed at), but a result whose execution overlapped a
// bump is not cached.
func (s *Server) BumpEpoch() int64 {
	e := s.epoch.Add(1)
	s.mu.Lock()
	if len(s.inflight) > 0 {
		s.inflight = make(map[cacheKey]*slot)
	}
	s.mu.Unlock()
	return e
}

// signal nudges the batcher (capacity-1 channel: a pending nudge already
// covers any number of queued events, since the batcher drains the whole
// queue per wake).
func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Shutdown stops admission immediately (subsequent Submits return ErrClosed)
// and asks the batcher to drain: everything already admitted is still
// batched, executed, and completed. Idempotent; returns without waiting.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.signal()
}

// Close shuts the server down and waits until the drain finishes: in-flight
// batches complete, queued queries are flushed as final batches (expired or
// canceled ones complete with their typed errors), and both server
// goroutines join. Safe to call more than once.
func (s *Server) Close() error {
	s.Shutdown()
	s.wg.Wait()
	s.run.Finish(s.clk.Now().Sub(s.started))
	s.observeServing()
	return nil
}

// batchLoop is the batcher: it watches the shared admission queue, flushes
// a ranked size-capped batch as soon as a full batch is pending, flushes
// the remainder when the window timer fires or the drain begins, and arms
// the window timer whenever a partial buffer starts waiting. The queue
// stays shared (under mu) until a flush takes a batch, so load-shedding
// can see the whole undispatched population.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	defer close(s.batches)
	var timer Timer
	var timerC <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer, timerC = nil, nil
		}
	}
	for {
		var fired bool
		select {
		case <-s.wake:
		case <-timerC:
			timer, timerC = nil, nil
			fired = true
		}
		for {
			s.mu.Lock()
			var take []*slot
			var trig flushTrigger
			switch {
			case len(s.queue) >= s.cfg.BatchSize:
				if s.affinityRank && len(s.queue) > s.cfg.BatchSize {
					s.rankPendingLocked()
				}
				take = append([]*slot(nil), s.queue[:s.cfg.BatchSize]...)
				s.queue = append(s.queue[:0], s.queue[s.cfg.BatchSize:]...)
				trig = flushSize
			case (s.closed || fired) && len(s.queue) > 0:
				take = s.queue
				s.queue = nil
				if s.closed {
					trig = flushDrain
				} else {
					trig = flushWindow
					fired = false
				}
			}
			s.mu.Unlock()
			if take == nil {
				break
			}
			s.flush(take, trig)
		}
		s.mu.Lock()
		waiting := len(s.queue)
		closed := s.closed
		s.mu.Unlock()
		if closed {
			stopTimer()
			return
		}
		if waiting > 0 {
			if timerC == nil {
				timer = s.clk.NewTimer(s.cfg.Window)
				timerC = timer.C()
			}
		} else {
			stopTimer()
		}
	}
}

// flush resolves canceled and deadline-expired waiters, then partitions the
// surviving slots with the method's batching policy and hands each batch to
// the executor (blocking — admission backpressure builds behind a busy
// executor). Dispatched and resolved slots leave the bounded admission
// population.
func (s *Server) flush(buf []*slot, trig flushTrigger) {
	switch trig {
	case flushWindow:
		s.stats.windowFlushes.Add(1)
	case flushSize:
		s.stats.sizeFlushes.Add(1)
	case flushDrain:
		s.stats.drainFlushes.Add(1)
	}
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
	// SplitParadigm keeps every dispatched batch paradigm-homogeneous: a
	// live queue can interleave monotone and iterate-to-convergence queries
	// arbitrarily, but engines evaluate the two under disjoint paths.
	for _, idx := range sched.SplitParadigm(qs, s.plan.Policy.MakeBatches(qs, s.cfg.BatchSize)) {
		fb := &formedBatch{slots: make([]*slot, len(idx))}
		for i, bi := range idx {
			fb.slots[i] = live[bi]
		}
		s.batches <- fb
	}
}

// releasePending removes dispatched slots from the bounded admission
// population. The executor calls it on receipt, before entering the engine:
// a batch still blocked in the batcher's handoff behind a busy executor
// therefore keeps exerting admission backpressure, while a batch the
// executor has picked up has deterministically left the population.
func (s *Server) releasePending(slots []*slot) {
	s.mu.Lock()
	for _, sl := range slots {
		s.pending--
		s.tierPending[tierIndex(sl.tier)]--
	}
	s.mu.Unlock()
}

// finish completes a ticket exactly once; the channel close publishes the
// result fields to every waiter.
func (s *Server) finish(t *Ticket, vals []queries.Value, err error) {
	t.values, t.err = vals, err
	close(t.done)
}

// execLoop is the executor: it evaluates formed batches in order until the
// batcher closes the channel at the end of its drain.
func (s *Server) execLoop() {
	defer s.wg.Done()
	for fb := range s.batches {
		s.runBatch(fb)
	}
}

// runBatch evaluates one batch on the plan's engine with the exact offline
// semantics: the plan's batch options (alignment vectors when the method is
// aligned), per-iteration telemetry into the server's run trace. Each slot's
// result is installed into the cache (unless an epoch bump overlapped the
// execution) and fanned out to all its waiters.
func (s *Server) runBatch(fb *formedBatch) {
	s.releasePending(fb.slots)
	qs := make([]queries.Query, len(fb.slots))
	seqs := make([]int, len(fb.slots))
	for i, sl := range fb.slots {
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
	s.stats.batches.Add(1)
	s.occupancy.Observe(int64(len(qs)))
	if err != nil {
		for _, sl := range fb.slots {
			s.completeSlot(sl, nil, -1, fmt.Errorf("serve: batch failed: %w", err))
		}
	} else {
		// A bump during execution means the values belong to a retired
		// epoch: still correct answers for the waiters that asked under it,
		// but never cached (lookups compare entry epoch to the live one, so
		// even a racing insert could not be served stale).
		fresh := s.epoch.Load() == epoch
		// Fresh vectors, the cache's and the waiters' from here on; the value
		// array they were read from goes back for the next batch.
		all := br.AllQueryValues(s.cfg.Pool, s.cfg.Workers)
		br.Release()
		for i, sl := range fb.slots {
			vals := all[i]
			if fresh {
				s.cachePut(sl.key, vals, epoch)
			}
			s.completeSlot(sl, vals, epoch, nil)
		}
	}
	s.observeServing()
}

// Stats builds the current serving metrics snapshot.
func (s *Server) Stats() *telemetry.ServingMetrics {
	s.mu.Lock()
	depth := s.pending
	s.mu.Unlock()
	shedByTier := make([]int64, NumTiers)
	for i := range shedByTier {
		shedByTier[i] = s.stats.shedByTier[i].Load()
	}
	return &telemetry.ServingMetrics{
		Submitted:          s.stats.submitted.Load(),
		Admitted:           s.stats.admitted.Load(),
		RejectedFull:       s.stats.rejectedFull.Load(),
		RejectedClosed:     s.stats.rejectedClosed.Load(),
		Canceled:           s.stats.canceled.Load(),
		DeadlineMisses:     s.stats.deadlineMisses.Load(),
		Completed:          s.stats.completed.Load(),
		Batches:            s.stats.batches.Load(),
		WindowFlushes:      s.stats.windowFlushes.Load(),
		SizeFlushes:        s.stats.sizeFlushes.Load(),
		DrainFlushes:       s.stats.drainFlushes.Load(),
		QueueDepth:         int64(depth),
		Epoch:              s.epoch.Load(),
		CacheHits:          s.stats.cacheHits.Load(),
		CacheMisses:        s.stats.cacheMisses.Load(),
		CacheEvictions:     s.stats.cacheEvictions.Load(),
		CacheInvalidations: s.stats.cacheInvalidations.Load(),
		CacheSize:          int64(s.cache.len()),
		DedupCoalesced:     s.stats.dedupCoalesced.Load(),
		AdmissionReorders:  s.stats.admissionReorders.Load(),
		Shed:               s.stats.shed.Load(),
		ShedByTier:         shedByTier,
		AdmissionWaitNs:    s.admissionWait.Snapshot(),
		BatchOccupancy:     s.occupancy.Snapshot(),
	}
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
