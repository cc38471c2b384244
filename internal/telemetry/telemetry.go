package telemetry

import (
	"sync"
	"time"
)

// Collector is the root of the telemetry hierarchy: one Collector outlives
// many method runs (a whole glign-bench invocation, or the lifetime of a
// Runtime), accumulating global counters, histograms, and one RunTrace per
// systems.Run call. All methods are safe for concurrent use, and all methods
// on a nil *Collector (and on the nil traces it hands out) are no-ops, so
// instrumented code needs no enabled/disabled branches beyond a nil check.
type Collector struct {
	// Counters aggregates monotone totals across every run the collector
	// observed. Fields are atomic; read them with Load or via Snapshot.
	Counters Counters
	// FrontierSizes observes the unified frontier size entering every global
	// iteration (the distribution behind paper Figure 7).
	FrontierSizes Histogram
	// EdgesPerIteration observes edges processed per global iteration.
	EdgesPerIteration Histogram

	mu      sync.Mutex
	runs    []*RunTrace
	sched   *SchedulerMetrics
	serving *ServingMetrics
}

// NewCollector returns an empty enabled collector.
func NewCollector() *Collector { return &Collector{} }

// StartRun opens a trace for one method run (one systems.Run call: a whole
// query buffer evaluated under one method). Returns nil when c is nil.
func (c *Collector) StartRun(method, policy string) *RunTrace {
	if c == nil {
		return nil
	}
	r := &RunTrace{c: c, method: method, policy: policy}
	c.Counters.Runs.Add(1)
	c.mu.Lock()
	c.runs = append(c.runs, r)
	c.mu.Unlock()
	return r
}

// RunTrace accumulates the telemetry of one method run: its batches (in
// evaluation order) and the scheduler decisions that formed them.
type RunTrace struct {
	c              *Collector
	method, policy string

	mu        sync.Mutex
	batches   []*BatchTrace
	decisions []BatchingDecision
	duration  time.Duration
}

// StartBatch opens a trace for one evaluation batch. queries are buffer
// indices in batch order; alignment is the delayed-start vector (nil when
// every query starts at iteration 0). Returns nil when r is nil.
func (r *RunTrace) StartBatch(engine string, queryIdx, alignment []int) *BatchTrace {
	if r == nil {
		return nil
	}
	b := &BatchTrace{
		c:         r.c,
		engine:    engine,
		queries:   append([]int(nil), queryIdx...),
		alignment: append([]int(nil), alignment...),
	}
	c := r.c
	c.Counters.Batches.Add(1)
	c.Counters.Queries.Add(int64(len(queryIdx)))
	for _, a := range alignment {
		if a > 0 {
			c.Counters.DelayedQueries.Add(1)
			c.Counters.DelayOffsetSum.Add(int64(a))
		}
	}
	r.mu.Lock()
	b.index = len(r.batches)
	r.batches = append(r.batches, b)
	r.mu.Unlock()
	return b
}

// SetPolicy names the scheduling policy once it is known (the trace is
// opened before the method plan is resolved, so the policy name arrives
// late). No-op on nil.
func (r *RunTrace) SetPolicy(policy string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.policy = policy
	r.mu.Unlock()
}

// RecordDecision appends one scheduler batching decision (no-op on nil).
func (r *RunTrace) RecordDecision(d BatchingDecision) {
	if r == nil {
		return
	}
	r.c.Counters.BatchingDecisions.Add(1)
	r.mu.Lock()
	r.decisions = append(r.decisions, d)
	r.mu.Unlock()
}

// RemapDecisions rewrites the decisions recorded so far from positions in a
// list of the buffer's queries to buffer indices, position p becoming idx[p]
// (idx ascending). systems.Run calls it when the policy was given only the
// buffer's distinct computations. No-op on nil.
func (r *RunTrace) RemapDecisions(idx []int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.decisions {
		d := &r.decisions[i]
		// A new slice: a snapshot taken before the remap shares the old one.
		order := make([]int, len(d.Order))
		for j, p := range d.Order {
			order[j] = idx[p]
		}
		d.Order = order
		if d.WindowEnd > d.WindowStart {
			d.WindowStart, d.WindowEnd = idx[d.WindowStart], idx[d.WindowEnd-1]+1
		}
	}
}

// Finish stamps the run's total wall time (no-op on nil).
func (r *RunTrace) Finish(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.duration = d
	r.mu.Unlock()
}

// BatchTrace accumulates the per-iteration timeline of one evaluation batch.
type BatchTrace struct {
	c         *Collector
	index     int
	engine    string
	queries   []int
	alignment []int

	mu         sync.Mutex
	coalesced  []int
	iterations []IterationStat
	duration   time.Duration
}

// RecordIteration appends one global-iteration record and feeds the
// collector's global counters and histograms. Engines call it once per
// global iteration (or once per per-query iteration for sequential
// engines, with Query >= 0), never per edge, so the mutex is uncontended
// relative to the work it brackets. No-op on nil.
func (b *BatchTrace) RecordIteration(s IterationStat) {
	if b == nil {
		return
	}
	c := b.c
	c.Counters.Iterations.Add(1)
	c.Counters.EdgesProcessed.Add(s.EdgesProcessed)
	c.Counters.LaneRelaxations.Add(s.LaneRelaxations)
	c.Counters.ValueWrites.Add(s.ValueWrites)
	c.FrontierSizes.Observe(int64(s.FrontierSize))
	c.EdgesPerIteration.Observe(s.EdgesProcessed)
	b.mu.Lock()
	b.iterations = append(b.iterations, s)
	b.mu.Unlock()
}

// Coalesce records the buffer indices the batch answered without a lane:
// queries equivalent to one of its lanes (queries.KeyOf). No-op on nil.
func (b *BatchTrace) Coalesce(idx []int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.coalesced = append(b.coalesced, idx...)
	b.mu.Unlock()
}

// Finish stamps the batch's evaluation time (no-op on nil).
func (b *BatchTrace) Finish(d time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.duration = d
	b.mu.Unlock()
}

// Evaluation model of a global iteration.
const (
	// ModePush marks a push-model EdgeMap iteration over a frontier.
	ModePush = "push"
	// ModeJacobi marks one all-vertices round of an iterate-to-convergence
	// (non-monotone) evaluation — every vertex recomputes from its
	// in-neighbors' previous-round values.
	ModeJacobi = "jacobi"
)

// IterationStat is one global-iteration record — the per-iteration
// quantities the paper's Figures 6-9 reason about. Counters are deltas for
// this iteration, not cumulative totals.
type IterationStat struct {
	// Iter is the global iteration number within the batch (0-based).
	Iter int `json:"iter"`
	// Query is the batch lane this record belongs to for engines that
	// evaluate queries one at a time (Ligra-S, Congra); -1 for batch
	// engines whose iterations span all lanes.
	Query int `json:"query"`
	// FrontierSize is |frontier| entering the iteration (the unified
	// frontier for batch engines, the per-query frontier otherwise).
	FrontierSize int `json:"frontier_size"`
	// Mode is ModePush or ModeJacobi.
	Mode string `json:"mode"`
	// ActiveQueries counts the queries whose delayed start has arrived
	// (alignment offset <= Iter).
	ActiveQueries int `json:"active_queries"`
	// InjectedQueries counts the queries whose delayed start arrived
	// exactly at this iteration.
	InjectedQueries int `json:"injected_queries"`
	// EdgesProcessed counts edge visits this iteration (per active vertex,
	// per out-edge).
	EdgesProcessed int64 `json:"edges_processed"`
	// LaneRelaxations counts per-query relaxation attempts on edges.
	LaneRelaxations int64 `json:"lane_relaxations"`
	// ValueWrites counts successful relaxations (value-array improvements).
	ValueWrites int64 `json:"value_writes"`
}

// BatchingDecision records one scheduler decision: how one batching window
// of the buffer was ranked into evaluation order (paper §3.4 / Figure 10).
type BatchingDecision struct {
	// Policy is the scheduling policy that made the decision ("Affinity",
	// "iBFS").
	Policy string `json:"policy"`
	// WindowStart/WindowEnd delimit the buffer slice [start, end) the
	// policy was allowed to reorder (the batching window B_w).
	WindowStart int `json:"window_start"`
	WindowEnd   int `json:"window_end"`
	// Order lists buffer indices in the ranked order the policy chose;
	// consecutive runs of batch-size indices form the evaluation batches.
	Order []int `json:"order"`
	// Arrivals[i] is the estimated heavy-iteration arrival time
	// (closestHV) of the query at Order[i], when the policy ranks by it.
	Arrivals []int `json:"arrival_estimates,omitempty"`
}
