package queries

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Values is a flat array of Value cells supporting lock-free monotone
// updates. Cells are stored as float64 bit patterns in atomic.Uint64 words so
// a CAS loop can implement the atomic "write if better" every push-model
// engine needs (the writeMin of Ligra).
//
// The concurrent engines lay a whole batch out in one Values as the
// ValArray[v*B+i] of paper §3.5: one row of exactly B cells per vertex, the
// value of vertex v for query i at core.Cell(v, B, i). Relaxing an edge for
// every query therefore touches B consecutive cells, which is what LoadRow
// and the row kernels of fastpath.go (ImproveMinRow, ImproveMaxRow) work on.
type Values struct {
	bits []atomic.Uint64
}

// Repeat returns a new array of n copies of row laid end to end, as
// slices.Repeat does: n rows of len(row) cells, each set to row (FillRows).
func Repeat(row []Value, n int) *Values {
	v := &Values{bits: make([]atomic.Uint64, len(row)*n)}
	v.FillRows(row, 0, n)
	return v
}

// FillRows sets rows [lo, hi) of v, rows of len(row) cells, to row. It stores
// one row cell by cell and doubles it with copy, a memmove, which is several
// times faster than Set cell by cell but not atomic: the caller must own those
// rows, so that nothing reads or writes them until the fill is published — by
// a pool join, or by handing v out only afterwards.
func (v *Values) FillRows(row []Value, lo, hi int) {
	cells := v.bits[lo*len(row) : hi*len(row)]
	if len(cells) == 0 {
		return
	}
	for i, x := range row {
		cells[i].Store(math.Float64bits(x))
	}
	for filled := len(row); filled < len(cells); filled *= 2 {
		copy(cells[filled:], cells[:filled])
	}
}

// CopyLanes sets cell base+i of v to cell i of row for every lane i whose bit
// lanes holds, a word per 64 lanes, one copy a run of consecutive lanes. Like
// FillRows it stores plainly, not atomically: the caller must own those
// cells, so that nothing reads or writes them until a pool join publishes
// the copy.
func (v *Values) CopyLanes(base int, row *Values, lanes []uint64) {
	for w, m := range lanes {
		for m != 0 {
			lo := bits.TrailingZeros64(m)
			hi := lo + bits.TrailingZeros64(^(m >> lo))
			i, j := w<<6+lo, w<<6+hi
			copy(v.bits[base+i:base+j], row.bits[i:j])
			m &^= 1<<hi - 1
		}
	}
}

// Resized returns an array of exactly length cells whose contents are
// unspecified — the caller writes every cell before reading any: v itself,
// resliced, when its backing array is long enough (it keeps its capacity, so
// a later, longer Resized finds it again), and a new array otherwise; v may
// be nil. This is how a batch value array passes from one batch to the next
// (core.Arena) with the identity fill as the only pass over it.
func (v *Values) Resized(length int) *Values {
	if v == nil || cap(v.bits) < length {
		return &Values{bits: make([]atomic.Uint64, length)}
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
	return math.Float64frombits(v.bits[i].Load())
}

// Set unconditionally stores x into cell i (atomic store; use for
// initialization such as injecting source values).
func (v *Values) Set(i int, x Value) {
	v.bits[i].Store(math.Float64bits(x))
}

// LoadRow atomically reads the len(dst) consecutive cells starting at base
// into dst — one vertex's row, or a prefix of it.
func (v *Values) LoadRow(base int, dst []Value) {
	row := v.bits[base : base+len(dst)]
	for k := range row {
		dst[k] = math.Float64frombits(row[k].Load())
	}
}

// Improve installs cand into cell i iff better(cand, current); it retries on
// contention and reports whether it performed an update. This is the atomic
// relaxation step: with a monotone better, cells only ever improve, so the
// loop terminates.
func (v *Values) Improve(i int, cand Value, better func(a, b Value) bool) bool {
	cell := &v.bits[i]
	candBits := math.Float64bits(cand)
	for {
		oldBits := cell.Load()
		if !better(cand, math.Float64frombits(oldBits)) {
			return false
		}
		if cell.CompareAndSwap(oldBits, candBits) {
			return true
		}
	}
}

// Bytes returns the footprint of the value array.
func (v *Values) Bytes() int64 { return int64(len(v.bits)) * 8 }
