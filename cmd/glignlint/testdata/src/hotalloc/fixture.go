// Package core is a hotalloc fixture: iteration loops driving internal/par
// with per-iteration allocations (true positives), properly reserved scratch
// buffers (true negatives), and one justified diagnostic allocation (the
// suppressed case). The package name is what puts it in the analyzer's scope.
package core

import "github.com/glign/glign/internal/par"

// badLoop allocates on the hot path every iteration: a fresh buffer (make),
// and an append into a never-reserved slice — both true positives.
func badLoop(n, iters int) []int {
	var trace []int
	for iter := 0; iter < iters; iter++ {
		buf := make([]int, n) // true positive: per-iteration make
		par.For(n, 0, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				buf[i] = i
			}
		})
		trace = append(trace, len(buf)) // true positive: unreserved append
	}
	return trace
}

// badClosure allocates inside the worker closure itself (once per chunk per
// iteration): a map literal — true positive.
func badClosure(n int) {
	par.For(n, 0, 0, func(lo, hi int) {
		seen := map[int]bool{} // true positive: per-chunk map literal
		for i := lo; i < hi; i++ {
			seen[i] = true
		}
	})
}

// goodLoop is the prescribed shape: the per-iteration record is reserved with
// a capacity hint before the loop, and per-worker scratch uses the zero-length
// make idiom — all true negatives.
func goodLoop(n, iters int) []int {
	sizes := make([]int, 0, iters) // reservation with an iteration-cap hint
	for iter := 0; iter < iters; iter++ {
		par.For(n, 0, 0, func(lo, hi int) {
			lanes := make([]int, 0, hi-lo) // scratch make: exempt by idiom
			for i := lo; i < hi; i++ {
				lanes = append(lanes, i) // reserved on every path: exempt
			}
			_ = lanes
		})
		sizes = append(sizes, n) // reserved on every path: exempt
	}
	return sizes
}

// badPoolLoop drives the persistent pool through its method entry point; a
// loop around pool.For is as hot as one around par.For, and the
// per-iteration make must still be flagged: true positive (and the proof
// that method calls on par.Pool count as par calls).
func badPoolLoop(p *par.Pool, n, iters int) {
	for iter := 0; iter < iters; iter++ {
		buf := make([]int, n) // true positive: per-iteration make
		p.For(n, 0, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				buf[i] = i
			}
		})
	}
}

// historyLoop captures opt-in diagnostics on the hot path under a
// suppression: finding emitted but suppressed.
func historyLoop(n, iters int) [][]int {
	history := make([][]int, 0, iters)
	for iter := 0; iter < iters; iter++ {
		par.For(n, 0, 0, func(lo, hi int) {})
		//lint:ignore glignlint/hotalloc fixture: history capture is opt-in diagnostics, off the steady-state path
		row := make([]int, n)
		history = append(history, row)
	}
	return history
}

// The traversal-driver shape: the worker closure is bound once before the
// loop, and calls a chunk body it reads from a struct field that policies
// fill with method values. The chunk bodies are as hot as a closure literal
// handed to par directly.
type step struct {
	total int
	body  func(lo, hi int) int
}

type policy struct{ active []int }

// badChunk allocates a map per chunk — true positive, reached only through
// step.body.
func (p *policy) badChunk(lo, hi int) int {
	seen := map[int]bool{} // true positive: per-chunk map literal
	for _, v := range p.active[lo:hi] {
		seen[v] = true
	}
	return len(seen)
}

// goodChunk uses the reserved-scratch idiom — true negative.
func (p *policy) goodChunk(lo, hi int) int {
	lanes := make([]int, 0, hi-lo) // scratch make: exempt by idiom
	for _, v := range p.active[lo:hi] {
		lanes = append(lanes, v) // reserved on every path: exempt
	}
	return len(lanes)
}

func (p *policy) step(iter int) step {
	if iter%2 == 0 {
		return step{total: len(p.active), body: p.badChunk}
	}
	return step{total: len(p.active), body: p.goodChunk}
}

// drive is the prescribed driver: no closure literal and no allocation inside
// the iteration loop — true negative.
func drive(pool *par.Pool, p *policy, iters int) {
	var body func(lo, hi int) int
	chunk := func(lo, hi int) { _ = body(lo, hi) }
	for iter := 0; iter < iters; iter++ {
		s := p.step(iter)
		body = s.body
		pool.For(s.total, 0, 0, chunk)
	}
}

// The Jacobi evaluator's shape: the round body is picked by the batch's
// kernel kind into a variable the chunk closure calls. Each round body is as
// hot as a closure literal handed to par directly.
type jacobi struct{ vals []float64 }

// fusedRound allocates a row per chunk — true positive, reached only through
// the round variable.
func (j *jacobi) fusedRound(lo, hi int) int {
	row := make([]float64, hi-lo) // true positive: per-chunk make in a round body
	return copy(row, j.vals[lo:hi])
}

// stepRound allocates nothing — true negative.
func (j *jacobi) stepRound(lo, hi int) int { return hi - lo }

func runJacobi(pool *par.Pool, j *jacobi, fused bool, rounds int) {
	round := j.stepRound
	if fused {
		round = j.fusedRound
	}
	chunk := func(lo, hi int) { _ = round(lo, hi) }
	for r := 0; r < rounds; r++ {
		pool.For(len(j.vals), 0, 0, chunk)
	}
}

// The per-batch path: functions on the analyzer's hot list (hotAllocFuncs)
// hand a batch its recycled state. A straight-line allocation is the fall-back
// when there is nothing to recycle; a loop in them runs per lane of every
// batch, driving par or not.
type Arena struct{ spare []int }

// takeValues allocates in a loop that drives no par call — a true positive
// only because the function is on the hot list — and once outside it, the
// fall-back — a true negative.
func (a *Arena) takeValues(lanes, n int) [][]int {
	if a == nil || cap(a.spare) < n {
		a = &Arena{spare: make([]int, n)} // fall-back, straight-line: exempt
	}
	rows := make([][]int, 0, lanes)
	for i := 0; i < lanes; i++ {
		row := make([]int, n) // true positive: per-lane make on the per-batch path
		rows = append(rows, row)
	}
	return rows
}

// coldLoop is the same loop in a function that is not on the list — true
// negative.
func coldLoop(lanes, n int) [][]int {
	rows := make([][]int, 0, lanes)
	for i := 0; i < lanes; i++ {
		rows = append(rows, make([]int, n))
	}
	return rows
}
