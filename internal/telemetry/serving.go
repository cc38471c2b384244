package telemetry

// ServingMetrics is the live-serving section of the metrics snapshot
// (internal/serve): admission outcomes, flush triggers, and the admission
// latency / batch occupancy distributions of one Server. Counters are
// cumulative over the server's lifetime; QueueDepth is a gauge sampled at
// observation time. The section is additive to glign.telemetry/v1 — the
// schema version is unchanged.
type ServingMetrics struct {
	// Submitted counts Submit calls; Admitted the subset that entered the
	// queue; RejectedFull / RejectedClosed the typed rejections.
	Submitted      int64 `json:"submitted"`
	Admitted       int64 `json:"admitted"`
	RejectedFull   int64 `json:"rejected_full"`
	RejectedClosed int64 `json:"rejected_closed"`
	// Canceled counts queries whose context was canceled while queued;
	// DeadlineMisses those whose deadline expired before batching. Both are
	// resolved at batch-formation time, never mid-execution.
	Canceled       int64 `json:"canceled"`
	DeadlineMisses int64 `json:"deadline_misses"`
	// Completed counts queries that received result vectors.
	Completed int64 `json:"completed"`
	// Batches counts executed batches; the three flush counters attribute
	// every batch-formation event to its trigger: the engine was idle, so
	// the serving loop took the whole queue (WindowFlushes, named for the
	// window timer this trigger replaced), the size cap was reached, or the
	// shutdown drain.
	Batches       int64 `json:"batches"`
	WindowFlushes int64 `json:"window_flushes"`
	SizeFlushes   int64 `json:"size_flushes"`
	DrainFlushes  int64 `json:"drain_flushes"`
	// QueueDepth is the number of queued queries, not yet taken by the
	// serving loop, at observation time (the quantity bounded by the
	// server's queue capacity).
	QueueDepth int64 `json:"queue_depth"`
	// Epoch is the server's current data epoch (a gauge; bumped by
	// Server.BumpEpoch). Cached results are valid only for the epoch they
	// were computed at.
	Epoch int64 `json:"epoch"`
	// CacheHits counts submissions answered from the computation-keyed
	// result cache without executing; CacheMisses those that consulted the
	// cache and fell through to the queue (or to dedup coalescing).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheEvictions counts entries displaced by the LRU capacity bound;
	// CacheInvalidations entries dropped at lookup because their epoch no
	// longer matched the server's; CacheSize is the entry count at
	// observation time (a gauge).
	CacheEvictions     int64 `json:"cache_evictions"`
	CacheInvalidations int64 `json:"cache_invalidations"`
	CacheSize          int64 `json:"cache_size"`
	// DedupCoalesced counts submissions that joined the slot of an
	// already-pending query with the same computation key (queries.KeyOf)
	// instead of occupying their own (one executed batch slot fans its
	// result out to every coalesced waiter).
	DedupCoalesced int64 `json:"dedup_coalesced"`
	// AdmissionReorders counts queries the affinity-aware admission ranking
	// displaced from their arrival position when ordering the pending queue
	// (counted per ranking pass).
	AdmissionReorders int64 `json:"admission_reorders"`
	// Shed counts queued queries sacrificed to admit a higher-priority
	// arrival at capacity; ShedByTier breaks the total down by the victim's
	// tier (index 0 low, 1 normal, 2 high).
	Shed       int64   `json:"shed"`
	ShedByTier []int64 `json:"shed_by_tier,omitempty"`
	// AdmissionWaitNs is the power-of-two histogram of per-query admission
	// latency (admit -> batch formation), in nanoseconds on the server's
	// clock; BatchOccupancy the histogram of executed batch sizes.
	AdmissionWaitNs []HistBucket `json:"admission_wait_ns,omitempty"`
	BatchOccupancy  []HistBucket `json:"batch_occupancy,omitempty"`
}

// ObserveServing installs sm as the collector's serving section (last
// observation wins — a server observes after every batch and at Close, so
// the snapshot tracks the live totals). Nil-safe on both sides: a nil
// collector means telemetry is disabled, a nil sm means nothing to record.
func (c *Collector) ObserveServing(sm *ServingMetrics) {
	if c == nil {
		return
	}
	if sm == nil {
		return
	}
	c.mu.Lock()
	c.serving = sm
	c.mu.Unlock()
}
