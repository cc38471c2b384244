package telemetry

// SchemaVersion identifies the JSON metrics schema emitted by Snapshot
// (documented field-by-field in OBSERVABILITY.md). Bump on any
// incompatible change so downstream consumers of -metrics-out files can
// dispatch on it.
const SchemaVersion = "glign.telemetry/v1"

// Metrics is the JSON-serializable snapshot of a whole collector.
type Metrics struct {
	Schema     string                  `json:"schema"`
	Counters   CounterSnapshot         `json:"counters"`
	Histograms map[string][]HistBucket `json:"histograms"`
	// Scheduler carries the work-stealing pool counters of the last observed
	// pool (see Collector.ObservePool); omitted when no pool was observed.
	// Additive field — the schema version is unchanged.
	Scheduler *SchedulerMetrics `json:"scheduler,omitempty"`
	// Serving carries the live-serving counters of the last observed server
	// (see Collector.ObserveServing); omitted when no server was observed.
	// Additive field — the schema version is unchanged.
	Serving *ServingMetrics `json:"serving,omitempty"`
	Runs    []*RunMetrics   `json:"runs"`
}

// RunMetrics is the snapshot of one method run (one RunTrace).
type RunMetrics struct {
	Method          string             `json:"method"`
	Policy          string             `json:"policy,omitempty"`
	DurationSeconds float64            `json:"duration_seconds"`
	Batches         []*BatchMetrics    `json:"batches"`
	Decisions       []BatchingDecision `json:"batching_decisions,omitempty"`
}

// BatchMetrics is the snapshot of one evaluation batch (one BatchTrace).
type BatchMetrics struct {
	// Index is the batch's position in the run's evaluation order.
	Index int `json:"index"`
	// Engine is the core.Engine that evaluated the batch.
	Engine string `json:"engine"`
	// Queries lists buffer indices in batch-lane order.
	Queries []int `json:"queries"`
	// Coalesced lists the buffer indices the batch answered without a lane,
	// each equivalent to one of Queries (queries.KeyOf). Additive field — the
	// schema version is unchanged.
	Coalesced []int `json:"coalesced,omitempty"`
	// Alignment is the delayed-start vector applied (empty: all zeros).
	Alignment []int `json:"alignment,omitempty"`
	// DurationSeconds is the batch's evaluation wall time.
	DurationSeconds float64 `json:"duration_seconds"`
	// Iterations is the per-iteration timeline, in execution order.
	Iterations []IterationStat `json:"iterations"`
}

// Snapshot deep-copies the collector's current state into its JSON form.
// Returns nil on a nil collector. Safe to call while runs are in flight;
// in-flight batches appear with the iterations recorded so far.
func (c *Collector) Snapshot() *Metrics {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	runs := append([]*RunTrace(nil), c.runs...)
	sched := c.sched
	serving := c.serving
	c.mu.Unlock()
	m := &Metrics{
		Schema:   SchemaVersion,
		Counters: c.Counters.Snapshot(),
		Histograms: map[string][]HistBucket{
			"frontier_size":       c.FrontierSizes.Snapshot(),
			"edges_per_iteration": c.EdgesPerIteration.Snapshot(),
		},
		Scheduler: sched,
		Serving:   serving,
		Runs:      make([]*RunMetrics, 0, len(runs)),
	}
	for _, r := range runs {
		m.Runs = append(m.Runs, r.Snapshot())
	}
	return m
}

// Snapshot deep-copies the run's current state (nil on a nil trace).
func (r *RunTrace) Snapshot() *RunMetrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	batches := append([]*BatchTrace(nil), r.batches...)
	out := &RunMetrics{
		Method:          r.method,
		Policy:          r.policy,
		DurationSeconds: r.duration.Seconds(),
		Decisions:       append([]BatchingDecision(nil), r.decisions...),
	}
	r.mu.Unlock()
	out.Batches = make([]*BatchMetrics, 0, len(batches))
	for _, b := range batches {
		out.Batches = append(out.Batches, b.Snapshot())
	}
	return out
}

// Snapshot deep-copies the batch's current state (nil on a nil trace).
func (b *BatchTrace) Snapshot() *BatchMetrics {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return &BatchMetrics{
		Index:           b.index,
		Engine:          b.engine,
		Queries:         append([]int(nil), b.queries...),
		Coalesced:       append([]int(nil), b.coalesced...),
		Alignment:       append([]int(nil), b.alignment...),
		DurationSeconds: b.duration.Seconds(),
		Iterations:      append([]IterationStat(nil), b.iterations...),
	}
}

// TotalIterations sums recorded iteration records over all batches.
func (r *RunMetrics) TotalIterations() int {
	n := 0
	for _, b := range r.Batches {
		n += len(b.Iterations)
	}
	return n
}

// TotalEdgesProcessed sums per-iteration edge visits over all batches.
func (r *RunMetrics) TotalEdgesProcessed() int64 {
	var n int64
	for _, b := range r.Batches {
		for _, it := range b.Iterations {
			n += it.EdgesProcessed
		}
	}
	return n
}

// TotalLaneRelaxations sums per-iteration relaxation attempts.
func (r *RunMetrics) TotalLaneRelaxations() int64 {
	var n int64
	for _, b := range r.Batches {
		for _, it := range b.Iterations {
			n += it.LaneRelaxations
		}
	}
	return n
}

// TotalValueWrites sums per-iteration successful relaxations.
func (r *RunMetrics) TotalValueWrites() int64 {
	var n int64
	for _, b := range r.Batches {
		for _, it := range b.Iterations {
			n += it.ValueWrites
		}
	}
	return n
}
