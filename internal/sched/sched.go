package sched

import (
	"sort"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// Policy partitions a query buffer into evaluation batches. Batches are
// returned as index lists into the buffer so results can be mapped back to
// arrival order.
type Policy interface {
	// Name identifies the policy ("FCFS", "Affinity").
	Name() string
	// MakeBatches splits buffer into batches of at most batchSize queries.
	MakeBatches(buffer []queries.Query, batchSize int) [][]int
}

// FCFS batches queries in arrival order — the default policy of existing
// concurrent graph systems.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "FCFS" }

// MakeBatches implements Policy.
func (FCFS) MakeBatches(buffer []queries.Query, batchSize int) [][]int {
	return chunkIndices(identity(len(buffer)), batchSize)
}

// Affinity is Glign's affinity-oriented batching (paper §3.4): within each
// batching window of Window queries (in arrival order), queries are ranked
// by their estimated heavy-iteration arrival time (closestHV — the same
// precompute that drives inter-iteration alignment) and consecutive runs of
// batchSize ranked queries form the evaluation batches. Queries with close
// arrival times therefore land in the same batch, where their heavy
// iterations align naturally. The window bounds reordering so no query is
// postponed indefinitely. Ranking a window costs one closestHV table lookup
// a query, in a plain loop on the caller's goroutine, and a stable sort.
type Affinity struct {
	// Profile supplies the closestHV estimates.
	Profile *align.Profile
	// Window is the batching window B_w; <= 0 means the whole buffer.
	Window int
	// Telemetry, when non-nil, receives one BatchingDecision per window —
	// the ranked order and the arrival estimates that produced it.
	Telemetry *telemetry.RunTrace
}

// Name implements Policy.
func (Affinity) Name() string { return "Affinity" }

// MakeBatches implements Policy.
func (a Affinity) MakeBatches(buffer []queries.Query, batchSize int) [][]int {
	window := a.Window
	if window <= 0 || window > len(buffer) {
		window = len(buffer)
	}
	var batches [][]int
	for lo := 0; lo < len(buffer); lo += window {
		hi := lo + window
		if hi > len(buffer) {
			hi = len(buffer)
		}
		idx, est := a.rankWindow(buffer, lo, hi)
		if a.Telemetry != nil {
			arrivals := make([]int, len(idx))
			for i, bi := range idx {
				arrivals[i] = est[bi-lo]
			}
			a.Telemetry.RecordDecision(telemetry.BatchingDecision{
				Policy:      a.Name(),
				WindowStart: lo,
				WindowEnd:   hi,
				Order:       append([]int(nil), idx...),
				Arrivals:    arrivals,
			})
		}
		batches = append(batches, chunkIndices(idx, batchSize)...)
	}
	return batches
}

// rankWindow ranks buffer[lo:hi) by arrival estimate (stable on arrival
// order for ties), returning absolute buffer indices in ranked order plus
// the window-relative estimate table the ranking used.
func (a Affinity) rankWindow(buffer []queries.Query, lo, hi int) (idx, est []int) {
	idx = identity(hi - lo)
	for i := range idx {
		idx[i] += lo
	}
	// Look each estimate up once per window (a hop-table lookup), then sort
	// against the table instead of re-deriving inside the comparator.
	est = make([]int, hi-lo)
	for i := range est {
		est[i] = a.Profile.ArrivalEstimate(buffer[lo+i].Source)
	}
	sort.SliceStable(idx, func(x, y int) bool {
		ax := est[idx[x]-lo]
		ay := est[idx[y]-lo]
		if ax != ay {
			return ax < ay
		}
		return idx[x] < idx[y]
	})
	return idx, est
}

// Rank orders the whole buffer by estimated heavy-iteration arrival time and
// returns the ranked buffer indices (stable: arrival order breaks ties). It
// is the per-window ranking MakeBatches applies, exposed over one unbounded
// window so callers that maintain their own pending sets — the serving
// loop's affinity-aware admission (internal/serve) — can order a live queue
// with the exact comparator the offline batching policy uses.
func (a Affinity) Rank(buffer []queries.Query) []int {
	if len(buffer) <= 1 {
		return identity(len(buffer))
	}
	idx, _ := a.rankWindow(buffer, 0, len(buffer))
	return idx
}

func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func chunkIndices(idx []int, size int) [][]int {
	if size <= 0 {
		size = len(idx)
	}
	var out [][]int
	for lo := 0; lo < len(idx); lo += size {
		hi := lo + size
		if hi > len(idx) {
			hi = len(idx)
		}
		out = append(out, idx[lo:hi:hi])
	}
	return out
}

// Select gathers the queries of one batch from the buffer.
func Select(buffer []queries.Query, batch []int) []queries.Query {
	out := make([]queries.Query, len(batch))
	for i, bi := range batch {
		out[i] = buffer[bi]
	}
	return out
}

// SplitParadigm refines a batching into paradigm-homogeneous batches:
// within each batch, monotone-kernel queries keep their relative order and
// stay together, and iterate-to-convergence queries split off into a
// trailing batch of their own. Engines accept only homogeneous batches
// (monotone CAS relaxation and Jacobi rounds share no evaluation state), so
// every policy's output passes through this before reaching an engine.
// Batches that are already homogeneous come back unchanged.
func SplitParadigm(buffer []queries.Query, batches [][]int) [][]int {
	out := make([][]int, 0, len(batches))
	for _, idx := range batches {
		conv := 0
		for _, qi := range idx {
			if _, ok := queries.ConvergentOf(buffer[qi].Kernel); ok {
				conv++
			}
		}
		if conv == 0 || conv == len(idx) {
			out = append(out, idx)
			continue
		}
		mono := make([]int, 0, len(idx)-conv)
		jac := make([]int, 0, conv)
		for _, qi := range idx {
			if _, ok := queries.ConvergentOf(buffer[qi].Kernel); ok {
				jac = append(jac, qi)
			} else {
				mono = append(mono, qi)
			}
		}
		out = append(out, mono, jac)
	}
	return out
}

// MaxDisplacement returns how far any query moved from its arrival position
// — the reordering bound the batching window enforces (at most Window-1).
func MaxDisplacement(batches [][]int) int {
	pos := 0
	maxD := 0
	for _, b := range batches {
		for _, orig := range b {
			d := orig - pos
			if d < 0 {
				d = -d
			}
			if d > maxD {
				maxD = d
			}
			pos++
		}
	}
	return maxD
}
