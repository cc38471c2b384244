// Package queries is a kernelmono fixture: a miniature Values array plus a
// Kernel interface with pure and impure implementations (the package name is
// what puts it in the analyzer's scope).
package queries

import "sync/atomic"

// Value mirrors the real query value type.
type Value = float64

// Values mirrors the real CAS-protected cell array.
type Values struct{ bits []atomic.Uint64 }

// Repeat allocates n cells (approved constructor).
func Repeat(n int) *Values { return &Values{bits: make([]atomic.Uint64, n)} }

// Get atomically reads cell i (approved accessor).
func (v *Values) Get(i int) Value { return Value(v.bits[i].Load()) }

// Set atomically stores cell i (approved accessor).
func (v *Values) Set(i int, x Value) { v.bits[i].Store(uint64(x)) }

// ImproveMin CASes cell i downward (approved helper).
func (v *Values) ImproveMin(i int, cand Value) bool {
	for {
		old := v.bits[i].Load()
		if Value(old) <= cand {
			return false
		}
		if v.bits[i].CompareAndSwap(old, uint64(cand)) {
			return true
		}
	}
}

// Poke writes a cell outside the approved helper set: true positive.
func Poke(v *Values, i int) { v.bits[i].Store(0) }

// Peek reads a cell directly under a suppression: finding emitted but
// suppressed.
func Peek(v *Values, i int) uint64 {
	//lint:ignore glignlint/kernelmono fixture: read-only debug helper on a quiesced array
	return v.bits[i].Load()
}

// Kernel mirrors the real kernel interface shape.
type Kernel interface {
	Identity() Value
	Relax(src Value, w float64) Value
	Better(a, b Value) bool
}

// good is a pure kernel: true negative (local state only).
type good struct{}

func (good) Identity() Value { return 0 }

func (good) Relax(src Value, w float64) Value {
	acc := struct{ v Value }{v: src}
	acc.v += Value(w)
	return acc.v
}

func (good) Better(a, b Value) bool { return a < b }

// bad is an impure kernel: its Relax writes receiver state and a Values
// array.
type bad struct {
	last Value
	vals *Values
}

func (b *bad) Identity() Value { return 0 }

func (b *bad) Relax(src Value, w float64) Value {
	b.last = src       // true positive: non-local write
	b.vals.Set(0, src) // true positive: Values mutation
	return src + w
}

func (b *bad) Better(a, c Value) bool { return a < c }

// counted counts its relaxations in a typed atomic: true positive, as a
// method of a sync/atomic type is as much a sync/atomic call as
// atomic.AddInt64 is.
type counted struct{}

var relaxCount atomic.Int64

func (counted) Identity() Value { return 0 }

func (counted) Relax(src Value, w float64) Value {
	relaxCount.Add(1) // true positive: sync/atomic in a kernel
	return src + w
}

func (counted) Better(a, b Value) bool { return a < b }

// sneaky hides its impurity behind a local pointer alias: true positive only
// with the alias-aware tier.
type sneaky struct{ last Value }

func (s *sneaky) Identity() Value { return 0 }

func (s *sneaky) Relax(src Value, w float64) Value {
	p := &s.last
	*p = src // true positive: write through an alias of receiver state
	return src + w
}

func (s *sneaky) Better(a, b Value) bool { return a < b }

// indirect delegates its side effect to a helper: true positive only with the
// call-graph purity tier.
type indirect struct{}

var tally int64

func bumpTally() { tally++ }

func (indirect) Identity() Value { return 0 }

func (indirect) Relax(src Value, w float64) Value {
	bumpTally() // true positive: calls an impure helper
	return src + w
}

func (indirect) Better(a, b Value) bool { return a < b }

// ConvergenceKernel mirrors the real iterate-to-convergence interface; its
// presence (together with Monotone below) arms the paradigm-classification
// tier.
type ConvergenceKernel interface {
	Kernel
	InitialValue(n, v int) Value
	Step(n int, self Value, nbrs []Value) Value
	Residual(old, next Value) float64
	Epsilon() float64
	MaxRounds() int
}

// Good and NewSneaky exercise the registry resolver's ident and
// constructor-call paths.
var Good Kernel = good{}

// NewSneaky constructs the alias-impure kernel.
func NewSneaky() Kernel { return &sneaky{} }

// Monotone mirrors the real monotone registry: every concrete Kernel type
// must resolve from here or implement ConvergenceKernel.
func Monotone() []Kernel {
	return []Kernel{
		Good,        // resolved through the var initializer
		&bad{},      // address-taken composite literal
		NewSneaky(), // resolved through the constructor's return
		indirect{},  // plain composite literal
		counted{},   // plain composite literal
		confused{},  // true positive: a ConvergenceKernel in the monotone registry
	}
}

// smooth is a pure convergence kernel: true negative for both the purity and
// the classification tiers.
type smooth struct{}

func (smooth) Identity() Value                  { return 0 }
func (smooth) Relax(src Value, w float64) Value { return src + w }
func (smooth) Better(a, b Value) bool           { return a < b }
func (smooth) InitialValue(n, v int) Value      { return Value(v) }
func (smooth) Residual(old, next Value) float64 { return next - old }
func (smooth) Epsilon() float64                 { return 0.5 }
func (smooth) MaxRounds() int                   { return 8 }

func (smooth) Step(n int, self Value, nbrs []Value) Value {
	s := self
	for _, x := range nbrs {
		if x < s {
			s = x
		}
	}
	return s
}

// rough is a convergence kernel whose Step mutates package state: true
// positive for the convergence-method purity tier.
var stepCount int64

type rough struct{}

func (rough) Identity() Value                  { return 0 }
func (rough) Relax(src Value, w float64) Value { return src + w }
func (rough) Better(a, b Value) bool           { return a < b }
func (rough) InitialValue(n, v int) Value      { return Value(v) }
func (rough) Residual(old, next Value) float64 { return next - old }
func (rough) Epsilon() float64                 { return 0.5 }
func (rough) MaxRounds() int                   { return 8 }

func (rough) Step(n int, self Value, nbrs []Value) Value {
	stepCount++ // true positive: non-local write inside a Jacobi step
	return self
}

// confused is a pure convergence kernel mislisted in Monotone(): the
// classification tier flags the registry entry, not the type.
type confused struct{}

func (confused) Identity() Value                         { return 0 }
func (confused) Relax(src Value, w float64) Value        { return src + w }
func (confused) Better(a, b Value) bool                  { return a < b }
func (confused) InitialValue(n, v int) Value             { return Value(v) }
func (confused) Step(n int, self Value, _ []Value) Value { return self }
func (confused) Residual(old, next Value) float64        { return next - old }
func (confused) Epsilon() float64                        { return 0.5 }
func (confused) MaxRounds() int                          { return 8 }

// stray implements Kernel but neither appears in Monotone() nor implements
// ConvergenceKernel: true positive for the classification tier.
type stray struct{}

func (stray) Identity() Value                  { return 0 }
func (stray) Relax(src Value, w float64) Value { return src + w }
func (stray) Better(a, b Value) bool           { return a < b }
