// Package staleignore (fixture) exercises unused-suppression detection: a
// directive matching a live parcapture finding is in use (clean), one whose
// finding was fixed long ago is stale (reported), a stale one kept on purpose
// is itself suppressed via glignlint/staleignore, and one naming no
// registered analyzer is reported.
package staleignore

import (
	"sync/atomic"

	"github.com/glign/glign/internal/par"
)

// racy writes a captured local from every worker; the directive below
// matches the live finding, so it is used and staleignore stays quiet.
func racy(xs []int) int {
	total := 0
	par.For(len(xs), 0, 1<<30, func(lo, hi int) {
		//lint:ignore glignlint/parcapture fixture: captured write kept to exercise directive matching
		total += hi - lo
	})
	return total
}

// published was fixed to publish with sync/atomic, but the directive rotted
// in place: it matches nothing now and staleignore reports it.
//
//lint:ignore glignlint/parcapture fixture: stale — the worker now publishes atomically
func published(xs []int) int64 {
	var total atomic.Int64
	par.For(len(xs), 0, 0, func(lo, hi int) {
		total.Add(int64(hi - lo))
	})
	return total.Load()
}

// alsoPublished keeps its retired directive on purpose (say, for an imminent
// revert); the staleignore directive above it silences the stale report.
func alsoPublished(dst []int) {
	par.For(len(dst), 0, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			//lint:ignore glignlint/staleignore fixture: retired suppression kept for an imminent revert
			//lint:ignore glignlint/parcapture fixture: stale on purpose — the store is to disjoint elements
			dst[i] = i
		}
	})
}

// subsetOnly carries a directive naming an analyzer (doclint) that the
// staleignore fixture test deliberately leaves unselected: a subset run
// cannot judge such a directive, so it must never be reported stale there —
// only a run that actually selects doclint may decide.
func subsetOnly(n int) []int {
	//lint:ignore glignlint/doclint fixture: judged only when doclint itself is selected
	return make([]int, n)
}

// typo names an analyzer the registry does not have, so its directive can
// never match a finding: staleignore reports it whatever the selection.
func typo(work func()) {
	//lint:ignore glignlint/atomicmx fixture: misspelt atomicmix, silences nothing
	work()
}
