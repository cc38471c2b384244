// Package parfix exercises the parcapture analyzer: closures handed to the
// internal/par helpers that write variables captured by reference.
package parfix

import (
	"sync/atomic"

	"github.com/glign/glign/internal/par"
)

// sumRace accumulates into a captured local from every worker: true positive.
func sumRace(xs []int) int {
	total := 0
	par.For(len(xs), 0, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i]
		}
	})
	return total
}

// fieldRace increments a field through a captured pointer: true positive.
type counter struct{ n int }

func fieldRace(c *counter, items []int) {
	par.ForEach(items, 0, func(int) {
		c.n++
	})
}

// sumAtomic publishes per-worker partials with sync/atomic: true negative
// (the accumulate-locally, publish-atomically convention).
func sumAtomic(xs []int) int64 {
	var total int64
	par.For(len(xs), 0, 0, func(lo, hi int) {
		local := int64(0)
		for i := lo; i < hi; i++ {
			local += int64(xs[i])
		}
		atomic.AddInt64(&total, local)
	})
	return total
}

// fillDisjoint stores to disjoint slice elements: true negative (element
// stores are the intended output channel of a parallel for).
func fillDisjoint(dst []int) {
	par.For(len(dst), 0, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = i
		}
	})
}

// poolRace accumulates into a captured local through the persistent pool's
// method entry point — method calls on par.Pool are par calls too: true
// positive.
func poolRace(p *par.Pool, xs []int) int {
	total := 0
	p.For(len(xs), 0, 0, func(lo, hi int) {
		total += hi - lo
	})
	return total
}

// reduceClean folds through par.ForReduce with chunk-local accumulators and
// no capture writes — the shape ForReduce exists to replace captures with:
// true negative.
func reduceClean(p *par.Pool, xs []int) int64 {
	return par.ForReduce(p, len(xs), 0, 0, int64(0),
		func(lo, hi int, acc int64) int64 {
			for i := lo; i < hi; i++ {
				acc += int64(xs[i])
			}
			return acc
		},
		func(a, b int64) int64 { return a + b })
}

// reduceRace writes a captured variable from the fold closure of an
// explicitly instantiated par.ForReduce[int] — the generic wrapper must not
// hide the call: true positive.
func reduceRace(p *par.Pool, xs []int) int {
	seen := 0
	par.ForReduce[int](p, len(xs), 0, 0, 0,
		func(lo, hi int, acc int) int {
			seen = hi // races across workers
			return acc + hi - lo
		},
		func(a, b int) int { return a + b })
	return seen
}

// suppressedSum writes a captured local under a suppression: finding emitted
// but suppressed.
func suppressedSum(xs []int) int {
	total := 0
	par.For(len(xs), 0, 1<<30, func(lo, hi int) {
		//lint:ignore glignlint/parcapture fixture: the grain forces a single chunk, so one worker runs
		total += hi - lo
	})
	return total
}

// The traversal-driver shape: chunk bodies are method values stored in a
// struct field and called from a worker closure bound to a variable. A method
// worker's receiver is shared by every chunk.
type step struct {
	total int
	body  func(lo, hi int) int
}

type policy struct {
	active []int
	calls  int
}

// racyChunk counts its calls in a receiver field: true positive, reached only
// through step.body.
func (p *policy) racyChunk(lo, hi int) int {
	p.calls++
	return hi - lo
}

// cleanChunk keeps its state local and only reads the receiver: true
// negative.
func (p *policy) cleanChunk(lo, hi int) int {
	n := 0
	for range p.active[lo:hi] {
		n++
	}
	return n
}

func drive(pool *par.Pool, p *policy, iters int) int64 {
	var total int64
	var body func(lo, hi int) int
	chunk := func(lo, hi int) { atomic.AddInt64(&total, int64(body(lo, hi))) }
	for iter := 0; iter < iters; iter++ {
		s := step{total: len(p.active), body: p.cleanChunk}
		if iter%2 == 0 {
			s.body = p.racyChunk
		}
		body = s.body
		pool.For(s.total, 0, 0, chunk)
	}
	return total
}
