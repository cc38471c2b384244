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
	words []uint64
	count atomic.Int64

	// sparse caches the materialized vertex list; it is invalidated by any
	// mutation. Only valid when sparseOK.
	sparse   []graph.VertexID
	sparseOK bool
}

// New returns an empty subset over n vertices.
func New(n int) *Subset {
	return &Subset{n: n, words: make([]uint64, (n+63)/64)}
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
func (s *Subset) Words() []uint64 { return s.words }

// WordsBytes returns the bitmap footprint in bytes (used by the Table 11
// memory-footprint experiment).
func (s *Subset) WordsBytes() int64 { return int64(len(s.words)) * 8 }

// Add inserts v without synchronization. It reports whether v was newly
// inserted. Use AddSync from concurrent writers.
//
//lint:ignore glignlint/atomicmix single-threaded by contract: concurrent writers must use AddSync
func (s *Subset) Add(v graph.VertexID) bool {
	w, b := v>>6, uint64(1)<<(v&63)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	s.count.Add(1)
	s.sparseOK = false
	return true
}

// AddSync inserts v with a CAS loop, safe for concurrent use. It reports
// whether v was newly inserted (exactly one concurrent caller wins).
func (s *Subset) AddSync(v graph.VertexID) bool {
	w, b := v>>6, uint64(1)<<(v&63)
	addr := &s.words[w]
	for {
		old := atomic.LoadUint64(addr)
		if old&b != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|b) {
			s.count.Add(1)
			return true
		}
	}
}

// Contains reports whether v is in the subset. It is safe to call
// concurrently with AddSync (readers may observe a slightly stale view, as
// in Ligra).
func (s *Subset) Contains(v graph.VertexID) bool {
	return atomic.LoadUint64(&s.words[v>>6])&(uint64(1)<<(v&63)) != 0
}

// Count returns the number of vertices in the subset.
func (s *Subset) Count() int { return int(s.count.Load()) }

// IsEmpty reports whether the subset is empty.
func (s *Subset) IsEmpty() bool { return s.Count() == 0 }

// Clear removes all vertices, retaining capacity. Callers quiesce first.
//
//lint:ignore glignlint/atomicmix bulk reset in a quiesced phase; no concurrent AddSync can be in flight
func (s *Subset) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count.Store(0)
	s.sparse = s.sparse[:0]
	s.sparseOK = false
}

// Clone returns an independent copy.
//
//lint:ignore glignlint/atomicmix bulk copy of a quiesced bitmap; callers clone between iterations, never mid-relaxation
func (s *Subset) Clone() *Subset {
	c := New(s.n)
	copy(c.words, s.words)
	c.count.Store(s.count.Load())
	return c
}

// UnionWith adds every vertex of o into s (single-threaded).
//
//lint:ignore glignlint/atomicmix single-threaded merge between iterations; atomic word ops would halve throughput for no soundness gain
func (s *Subset) UnionWith(o *Subset) {
	total := 0
	for i := range s.words {
		s.words[i] |= o.words[i]
		total += bits.OnesCount64(s.words[i])
	}
	s.count.Store(int64(total))
	s.sparseOK = false
}

// UnionOf builds the union of parts (which must share one universe) with one
// word-level pass: 64 membership bits OR-combine per operation, and the
// member count falls out of bits.OnesCount64 on the way — no per-vertex CAS.
// This is how the two-level engine derives its unified frontier from the B
// separate lane frontiers after each iteration's relaxations have quiesced;
// at B=16 it replaces up to 16 AddSync CAS loops per improved vertex with
// one word read per lane per 64 vertices. The word scan runs on the pool
// (disjoint word blocks, chunk-ordered integer reduction — deterministic).
//
//lint:ignore glignlint/atomicmix the destination is private until return and parts are quiesced by contract; no AddSync can be in flight
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
	total := par.ForReduce(pool, len(words), workers, 0, 0,
		func(lo, hi int, acc int) int {
			for wi := lo; wi < hi; wi++ {
				var w uint64
				for _, p := range parts {
					w |= p.words[wi]
				}
				words[wi] = w
				acc += bits.OnesCount64(w)
			}
			return acc
		},
		func(a, b int) int { return a + b })
	u.count.Store(int64(total))
	return u
}

// OverlapCount returns |s ∩ o| (single-threaded, like UnionWith).
//
//lint:ignore glignlint/atomicmix read-only scan of quiesced frontiers (alignment profiling runs between traversals)
func (s *Subset) OverlapCount(o *Subset) int {
	total := 0
	for i := range s.words {
		total += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return total
}

// sparseParWords and sparseParCount gate the parallel materialization path
// of Sparse: both the bitmap (words) and the membership (vertices) must be
// large enough that the two scan passes amortize the dispatch. Below either
// threshold the serial walk wins and runs unchanged.
const (
	sparseParWords = 4096
	sparseParCount = 4096
)

// sparseBlockWords is the bitmap granule of the parallel path: blocks of
// 256 words (16K vertex slots, 2 KiB of bitmap) are counted and then filled
// independently, with a serial prefix sum in between fixing each block's
// output offset. Output order stays sorted — block bi writes exactly the
// slice [offsets[bi], offsets[bi+1]) in ascending vertex order.
const sparseBlockWords = 256

// Sparse returns the sorted list of member vertices, materializing and
// caching it on first use. The returned slice must not be modified. Not safe
// to call concurrently with mutation. Large dense frontiers materialize in
// parallel on the shared pool (count/prefix/fill over bitmap blocks); the
// result is identical to the serial walk.
//
//lint:ignore glignlint/atomicmix materialization happens between iterations by contract; the bitmap is quiesced
func (s *Subset) Sparse() []graph.VertexID {
	if s.sparseOK {
		return s.sparse
	}
	if len(s.words) >= sparseParWords && s.Count() >= sparseParCount {
		nb := (len(s.words) + sparseBlockWords - 1) / sparseBlockWords
		offsets := make([]int, nb+1)
		par.For(nb, 0, 1, func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				wlo := bi * sparseBlockWords
				whi := wlo + sparseBlockWords
				if whi > len(s.words) {
					whi = len(s.words)
				}
				c := 0
				for wi := wlo; wi < whi; wi++ {
					c += bits.OnesCount64(s.words[wi])
				}
				offsets[bi+1] = c
			}
		})
		for bi := 0; bi < nb; bi++ {
			offsets[bi+1] += offsets[bi]
		}
		total := offsets[nb]
		if cap(s.sparse) < total {
			s.sparse = make([]graph.VertexID, total)
		} else {
			s.sparse = s.sparse[:total]
		}
		out := s.sparse
		par.For(nb, 0, 1, func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				wlo := bi * sparseBlockWords
				whi := wlo + sparseBlockWords
				if whi > len(s.words) {
					whi = len(s.words)
				}
				at := offsets[bi]
				for wi := wlo; wi < whi; wi++ {
					w := s.words[wi]
					for w != 0 {
						b := bits.TrailingZeros64(w)
						out[at] = graph.VertexID(wi*64 + b)
						at++
						w &^= 1 << b
					}
				}
			}
		})
		s.sparseOK = true
		return s.sparse
	}
	s.sparse = s.sparse[:0]
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			s.sparse = append(s.sparse, graph.VertexID(wi*64+b))
			w &^= 1 << b
		}
	}
	s.sparseOK = true
	return s.sparse
}

// ForEach invokes fn for each member vertex in increasing order.
func (s *Subset) ForEach(fn func(v graph.VertexID)) {
	for _, v := range s.Sparse() {
		fn(v)
	}
}
