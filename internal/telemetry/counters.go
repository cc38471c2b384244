package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Counters are the collector's monotone global totals. Every field is
// atomic: hot paths pre-aggregate locally (per worker, per iteration) and
// add deltas, so a field sees one Add per iteration, not per edge.
type Counters struct {
	// Runs counts StartRun calls (method runs over whole buffers).
	Runs atomic.Int64
	// Batches counts evaluation batches; Queries counts the queries they
	// carried (a query re-counted if evaluated under several methods).
	Batches atomic.Int64
	Queries atomic.Int64
	// Iterations counts recorded global iterations.
	Iterations atomic.Int64
	// EdgesProcessed / LaneRelaxations / ValueWrites aggregate the
	// iteration deltas (see IterationStat for their units).
	EdgesProcessed  atomic.Int64
	LaneRelaxations atomic.Int64
	ValueWrites     atomic.Int64
	// DelayedQueries counts queries given a nonzero delayed-start offset;
	// DelayOffsetSum sums those offsets (global iterations of delay).
	DelayedQueries atomic.Int64
	DelayOffsetSum atomic.Int64
	// BatchingDecisions counts recorded scheduler window decisions.
	BatchingDecisions atomic.Int64
}

// CounterSnapshot is the JSON form of Counters.
type CounterSnapshot struct {
	Runs              int64 `json:"runs"`
	Batches           int64 `json:"batches"`
	Queries           int64 `json:"queries"`
	Iterations        int64 `json:"iterations"`
	EdgesProcessed    int64 `json:"edges_processed"`
	LaneRelaxations   int64 `json:"lane_relaxations"`
	ValueWrites       int64 `json:"value_writes"`
	DelayedQueries    int64 `json:"delayed_queries"`
	DelayOffsetSum    int64 `json:"delay_offset_sum"`
	BatchingDecisions int64 `json:"batching_decisions"`
}

// Snapshot atomically reads every counter.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Runs:              c.Runs.Load(),
		Batches:           c.Batches.Load(),
		Queries:           c.Queries.Load(),
		Iterations:        c.Iterations.Load(),
		EdgesProcessed:    c.EdgesProcessed.Load(),
		LaneRelaxations:   c.LaneRelaxations.Load(),
		ValueWrites:       c.ValueWrites.Load(),
		DelayedQueries:    c.DelayedQueries.Load(),
		DelayOffsetSum:    c.DelayOffsetSum.Load(),
		BatchingDecisions: c.BatchingDecisions.Load(),
	}
}

// Histogram is a lock-free histogram over non-negative int64 observations
// with power-of-two buckets: bucket 0 holds the value 0, bucket k holds
// [2^(k-1), 2^k). Sixty-five buckets cover the whole int64 range, so
// Observe never needs bounds checks beyond the negative clamp.
type Histogram struct {
	buckets [65]atomic.Int64
}

// Observe records one value (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// HistBucket is one non-empty histogram bucket: Count observations fell in
// [Lo, Hi].
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Snapshot returns the non-empty buckets in ascending order.
func (h *Histogram) Snapshot() []HistBucket {
	var out []HistBucket
	for k := range h.buckets {
		n := h.buckets[k].Load()
		if n == 0 {
			continue
		}
		b := HistBucket{Count: n}
		switch {
		case k == 0:
			// [0, 0]
		case k >= 63:
			b.Lo = int64(1) << 62
			b.Hi = int64(^uint64(0) >> 1) // MaxInt64
			if k == 64 {
				// Only reachable by values with bit 63 set, i.e. never for
				// non-negative int64; fold into the top bucket regardless.
				b.Lo = b.Hi
			}
		default:
			b.Lo = int64(1) << (k - 1)
			b.Hi = int64(1)<<k - 1
		}
		out = append(out, b)
	}
	return out
}
