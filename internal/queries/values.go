package queries

import (
	"math"
	"sync/atomic"
)

// Values is a flat array of Value cells supporting lock-free monotone
// updates. Cells are stored as float64 bit patterns in uint64 words so a CAS
// loop can implement the atomic "write if better" every push-model engine
// needs (the writeMin of Ligra).
//
// The concurrent engines lay a whole batch out in one Values as the
// ValArray[v*B+i] of paper §3.5: one row of exactly B cells per vertex, the
// value of vertex v for query i at core.Cell(v, B, i). Relaxing an edge for
// every query therefore touches B consecutive cells, which is what LoadRow
// and the row kernels of fastpath.go (ImproveMinRow, ImproveMaxRow) work on.
type Values struct {
	bits []uint64
}

// NewValues allocates length cells initialized to init.
func NewValues(length int, init Value) *Values {
	v := &Values{bits: make([]uint64, length)}
	v.Fill(init)
	return v
}

// Repeat returns a new array of n copies of row laid end to end, as
// slices.Repeat does: n rows of len(row) cells, each set to row. The array is
// filled before anyone can see it, so the fill needs no atomic stores — what
// makes it several times faster than Set cell by cell.
func Repeat(row []Value, n int) *Values {
	bits := make([]uint64, len(row)*n)
	if n > 0 {
		for i, x := range row {
			bits[i] = math.Float64bits(x)
		}
	}
	for filled := len(row); filled < len(bits); filled *= 2 {
		copy(bits[filled:], bits[:filled])
	}
	return &Values{bits: bits}
}

// Resized returns an array of exactly length cells whose contents are
// unspecified — the caller writes every cell before reading any: v itself,
// resliced, when its backing array is long enough (it keeps its capacity, so
// a later, longer Resized finds it again), and a new array otherwise; v may
// be nil. This is how a batch value array passes from one batch to the next
// (core.Arena) with the identity fill as the only pass over it.
func (v *Values) Resized(length int) *Values {
	if v == nil || cap(v.bits) < length {
		return &Values{bits: make([]uint64, length)}
	}
	v.bits = v.bits[:length]
	return v
}

// Len returns the number of cells.
func (v *Values) Len() int { return len(v.bits) }

// Cap returns how many cells Resized can give v without a new array.
func (v *Values) Cap() int { return cap(v.bits) }

// Get atomically reads cell i.
func (v *Values) Get(i int) Value {
	return math.Float64frombits(atomic.LoadUint64(&v.bits[i]))
}

// Set unconditionally stores x into cell i (atomic store; use for
// initialization such as injecting source values).
func (v *Values) Set(i int, x Value) {
	atomic.StoreUint64(&v.bits[i], math.Float64bits(x))
}

// LoadRow atomically reads the len(dst) consecutive cells starting at base
// into dst — one vertex's row, or a prefix of it.
func (v *Values) LoadRow(base int, dst []Value) {
	row := v.bits[base : base+len(dst)]
	for k := range row {
		dst[k] = math.Float64frombits(atomic.LoadUint64(&row[k]))
	}
}

// Fill resets every cell to x (not atomic). Fill is only reachable through
// NewValues, whose receiver is a freshly allocated, unpublished array — the
// flow-sensitive quiesce proof glignlint/atomicmix runs over the call graph
// verifies exactly this, which is why the plain stores need no suppression.
func (v *Values) Fill(x Value) {
	b := math.Float64bits(x)
	for i := range v.bits {
		v.bits[i] = b
	}
}

// Improve installs cand into cell i iff better(cand, current); it retries on
// contention and reports whether it performed an update. This is the atomic
// relaxation step: with a monotone better, cells only ever improve, so the
// loop terminates.
func (v *Values) Improve(i int, cand Value, better func(a, b Value) bool) bool {
	addr := &v.bits[i]
	candBits := math.Float64bits(cand)
	for {
		oldBits := atomic.LoadUint64(addr)
		if !better(cand, math.Float64frombits(oldBits)) {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, oldBits, candBits) {
			return true
		}
	}
}

// Bytes returns the footprint of the value array.
func (v *Values) Bytes() int64 { return int64(len(v.bits)) * 8 }
