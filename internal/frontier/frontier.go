package frontier

import (
	"math/bits"
	"sync/atomic"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
)

// Subset is a set of vertices out of a universe of n. The zero value is not
// usable; construct with New.
type Subset struct {
	n     int
	words []atomic.Uint64
	count atomic.Int64

	// sparse caches the materialized vertex list; it is invalidated by any
	// mutation. Only valid when sparseOK, which concurrent Adds clear.
	sparse   []graph.VertexID
	sparseOK atomic.Bool
}

// New returns an empty subset over n vertices.
func New(n int) *Subset {
	return &Subset{n: n, words: make([]atomic.Uint64, (n+63)/64)}
}

// Resized returns an empty subset over n vertices: s itself when its bitmap
// has the capacity (it keeps that capacity, and its member list's, for later
// universes and frontiers), and a new one otherwise. s must be empty, which
// leaves its bitmap all-zero over its whole capacity.
func (s *Subset) Resized(n int) *Subset {
	nw := (n + 63) / 64
	if cap(s.words) < nw {
		return New(n)
	}
	s.n, s.words = n, s.words[:nw]
	return s
}

// FromVertices returns a subset containing exactly vs.
func FromVertices(n int, vs ...graph.VertexID) *Subset {
	s := New(n)
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

// Universe returns n, the size of the vertex universe.
func (s *Subset) Universe() int { return s.n }

// Words exposes the underlying bitmap (read-only for callers).
func (s *Subset) Words() []atomic.Uint64 { return s.words }

// Add inserts v with a CAS loop, safe for concurrent use. It reports whether
// v was newly inserted (exactly one concurrent caller wins).
func (s *Subset) Add(v graph.VertexID) bool {
	word, b := &s.words[v>>6], uint64(1)<<(v&63)
	for {
		old := word.Load()
		if old&b != 0 {
			return false
		}
		if word.CompareAndSwap(old, old|b) {
			s.count.Add(1)
			s.invalidate()
			return true
		}
	}
}

// invalidate drops the cached member list. It stores only when the cache is
// valid, so a run of insertions writes the flag's line once.
func (s *Subset) invalidate() {
	if s.sparseOK.Load() {
		s.sparseOK.Store(false)
	}
}

// Contains reports whether v is in the subset. It is safe to call
// concurrently with Add (readers may observe a slightly stale view, as in
// Ligra).
func (s *Subset) Contains(v graph.VertexID) bool {
	return s.words[v>>6].Load()&(uint64(1)<<(v&63)) != 0
}

// Count returns the number of vertices in the subset.
func (s *Subset) Count() int { return int(s.count.Load()) }

// IsEmpty reports whether the subset is empty.
func (s *Subset) IsEmpty() bool { return s.Count() == 0 }

// Clear removes all vertices, retaining capacity. Callers quiesce first.
func (s *Subset) Clear() {
	clear(s.words)
	s.count.Store(0)
	s.sparse = s.sparse[:0]
	s.invalidate()
}

// Clone returns an independent copy. Callers quiesce first.
func (s *Subset) Clone() *Subset {
	c := New(s.n)
	copy(c.words, s.words)
	c.count.Store(s.count.Load())
	return c
}

// UnionWith adds every vertex of o into s (single-threaded).
func (s *Subset) UnionWith(o *Subset) {
	total := 0
	for i := range s.words {
		w := s.words[i].Load() | o.words[i].Load()
		s.words[i].Store(w)
		total += bits.OnesCount64(w)
	}
	s.count.Store(int64(total))
	s.invalidate()
}

// UnionOf builds the union of parts (which must share one universe) with one
// word-level pass: 64 membership bits OR-combine per operation, and the
// member count falls out of bits.OnesCount64 on the way — no per-vertex CAS.
// Its one caller outside the tests is the benchmark's frontier
// micro-measurement; the engines build their unified frontier from private
// accumulators (Merge), and the traced model walks theirs. The word scan runs on
// the pool over disjoint word blocks, each adding its popcount to the
// count.
func UnionOf(pool *par.Pool, workers int, parts ...*Subset) *Subset {
	if len(parts) == 0 {
		panic("frontier: UnionOf of no subsets")
	}
	u := New(parts[0].n)
	for _, p := range parts {
		if p.n != u.n {
			panic("frontier: UnionOf over mismatched universes")
		}
	}
	words := u.words
	par.OrDefault(pool).For(len(words), workers, 0, func(lo, hi int) {
		n := 0
		for wi := lo; wi < hi; wi++ {
			var w uint64
			for _, p := range parts {
				w |= p.words[wi].Load()
			}
			words[wi].Store(w)
			n += bits.OnesCount64(w)
		}
		u.count.Add(int64(n))
	})
	return u
}

// Sparse returns the sorted list of member vertices, materializing and
// caching it on first use. The returned slice must not be modified. Not safe
// to call concurrently with mutation.
func (s *Subset) Sparse() []graph.VertexID {
	if s.sparseOK.Load() {
		return s.sparse
	}
	s.sparse = s.sparse[:0]
	for wi := range s.words {
		w := s.words[wi].Load()
		for w != 0 {
			b := bits.TrailingZeros64(w)
			s.sparse = append(s.sparse, graph.VertexID(wi*64+b))
			w &^= 1 << b
		}
	}
	s.sparseOK.Store(true)
	return s.sparse
}

// ForEach invokes fn for each member vertex in increasing order.
func (s *Subset) ForEach(fn func(v graph.VertexID)) {
	for _, v := range s.Sparse() {
		fn(v)
	}
}
