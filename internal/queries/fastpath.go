package queries

import (
	"math"
	"sync/atomic"

	"github.com/glign/glign/internal/graph"
)

// OpKind identifies a built-in kernel so engines can run fused, direct
// relaxation loops instead of paying two indirect calls (Kernel.Relax plus
// the Better comparator) per edge and lane — the dominant cost of batch
// evaluation once frontiers are bitmap-cheap. OpPageRank selects the Jacobi
// evaluator's fused round in place of ConvergenceKernel.Step.
type OpKind uint8

// Kinds of the built-in kernels. OpCustom falls back to the Kernel
// interface, so user-defined kernels keep working, just without the fused
// path.
const (
	OpCustom OpKind = iota
	OpBFS
	OpSSSP
	OpSSWP
	OpSSNP
	OpViterbi
	OpPageRank
)

// KindOf classifies a kernel.
func KindOf(k Kernel) OpKind {
	switch k.(type) {
	case bfs:
		return OpBFS
	case sssp:
		return OpSSSP
	case sswp:
		return OpSSWP
	case ssnp:
		return OpSSNP
	case viterbi:
		return OpViterbi
	case pagerank:
		return OpPageRank
	}
	return OpCustom
}

// KindsOf classifies every kernel of a batch.
func KindsOf(kernels []Kernel) []OpKind {
	kinds := make([]OpKind, len(kernels))
	for i, k := range kernels {
		kinds[i] = KindOf(k)
	}
	return kinds
}

// ImproveMin installs cand into cell i iff cand < current (atomic, lock
// free). It is Improve specialized to minimizing kernels.
func (v *Values) ImproveMin(i int, cand Value) bool {
	addr := &v.bits[i]
	candBits := math.Float64bits(cand)
	for {
		oldBits := atomic.LoadUint64(addr)
		if cand >= math.Float64frombits(oldBits) {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, oldBits, candBits) {
			return true
		}
	}
}

// ImproveMax installs cand into cell i iff cand > current.
func (v *Values) ImproveMax(i int, cand Value) bool {
	addr := &v.bits[i]
	candBits := math.Float64bits(cand)
	for {
		oldBits := atomic.LoadUint64(addr)
		if cand <= math.Float64frombits(oldBits) {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, oldBits, candBits) {
			return true
		}
	}
}

// RelaxImprove performs one relaxation of the edge (·->dst, weight w) whose
// source currently holds src, against cell i of v, using the fused path for
// built-in kernels and the Kernel interface otherwise. It reports whether
// the destination improved. kind must be KindOf(k).
func RelaxImprove(v *Values, kind OpKind, k Kernel, i int, src Value, w graph.Weight) bool {
	switch kind {
	case OpBFS:
		return v.ImproveMin(i, src+1)
	case OpSSSP:
		return v.ImproveMin(i, src+Value(w))
	case OpSSWP:
		cand := Value(w)
		if src < cand {
			cand = src
		}
		return v.ImproveMax(i, cand)
	case OpSSNP:
		cand := Value(w)
		if src > cand {
			cand = src
		}
		return v.ImproveMin(i, cand)
	case OpViterbi:
		return v.ImproveMax(i, src/Value(w))
	}
	return v.Improve(i, k.Relax(src, w), k.Better)
}

// ImproveMinRow is ImproveMin over a row of up to 64 consecutive cells: it
// installs cand[k] into cell base+k wherever cand[k] is smaller than the
// cell, and returns which cells improved, bit k for cell base+k.
func (v *Values) ImproveMinRow(base int, cand []Value) (improved uint64) {
	row := v.bits[base:][:len(cand)]
	for k, c := range cand {
		addr := &row[k]
		for old := atomic.LoadUint64(addr); c < math.Float64frombits(old); old = atomic.LoadUint64(addr) {
			if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(c)) {
				improved |= 1 << uint(k)
				break
			}
		}
	}
	return improved
}

// ImproveMaxRow is ImproveMinRow for maximizing kernels.
func (v *Values) ImproveMaxRow(base int, cand []Value) (improved uint64) {
	row := v.bits[base:][:len(cand)]
	for k, c := range cand {
		addr := &row[k]
		for old := atomic.LoadUint64(addr); c > math.Float64frombits(old); old = atomic.LoadUint64(addr) {
			if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(c)) {
				improved |= 1 << uint(k)
				break
			}
		}
	}
	return improved
}

// RelaxImproveRow is RelaxImprove for a whole row of lanes running one
// built-in kind: src[k] is the edge source's value in lane k, the
// destination's lanes are the len(src) cells from base on, and cand is
// scratch of the same length. It reports which lanes improved: bit k&63 of
// improved[k>>6], one word per 64 lanes, every word overwritten; improved
// must hold (len(src)+63)/64 words. A lane whose src is the kernel's identity
// proposes nothing better than any cell holds, so rows need not be fully
// reached. kind must not be OpCustom.
func RelaxImproveRow(v *Values, kind OpKind, base int, src, cand []Value, w graph.Weight, improved []uint64) {
	cand = cand[:len(src)]
	wv := Value(w)
	maximize := false
	switch kind {
	case OpBFS:
		for k, s := range src {
			cand[k] = s + 1
		}
	case OpSSSP:
		for k, s := range src {
			cand[k] = s + wv
		}
	case OpSSWP:
		for k, s := range src {
			cand[k] = min(s, wv)
		}
		maximize = true
	case OpSSNP:
		for k, s := range src {
			cand[k] = max(s, wv)
		}
	case OpViterbi:
		for k, s := range src {
			cand[k] = s / wv
		}
		maximize = true
	default:
		panic("queries: RelaxImproveRow on a custom kernel")
	}
	for i := range improved {
		lo := i * 64
		block := cand[lo:min(lo+64, len(cand))]
		if maximize {
			improved[i] = v.ImproveMaxRow(base+lo, block)
		} else {
			improved[i] = v.ImproveMinRow(base+lo, block)
		}
	}
}
