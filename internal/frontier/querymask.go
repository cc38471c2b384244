package frontier

import (
	"sync/atomic"

	"github.com/glign/glign/internal/graph"
)

// QueryMask stores, for every vertex, the set of queries (up to 64) for
// which the vertex is active, as one uint64 bitmask per vertex. This is the
// fused per-vertex layout used by the Krill-style engine: unlike the B
// separate frontier arrays of Ligra-C, the activation state of all queries
// at a vertex shares one cache line, but unlike Glign's query-oblivious
// frontier it still tracks per-query activation.
type QueryMask struct {
	n     int
	masks []atomic.Uint64
}

// NewQueryMask returns an empty mask set over n vertices. It supports
// batches of at most 64 queries.
func NewQueryMask(n int) *QueryMask {
	return &QueryMask{n: n, masks: make([]atomic.Uint64, n)}
}

// MaxQueries is the largest batch a QueryMask can represent.
const MaxQueries = 64

// Set marks vertex v active for query q (0-based), with CAS so concurrent
// writers are safe.
func (m *QueryMask) Set(v graph.VertexID, q int) {
	b, mask := uint64(1)<<uint(q), &m.masks[v]
	for {
		old := mask.Load()
		if old&b != 0 || mask.CompareAndSwap(old, old|b) {
			return
		}
	}
}

// Get returns the query bitmask of v.
func (m *QueryMask) Get(v graph.VertexID) uint64 {
	return m.masks[v].Load()
}

// Clear deactivates everything, retaining capacity. Callers quiesce first.
func (m *QueryMask) Clear() {
	clear(m.masks)
}
