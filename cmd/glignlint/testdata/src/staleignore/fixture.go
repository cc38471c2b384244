// Package par (staleignore fixture) exercises unused-suppression detection:
// a directive matching a live waitjoin finding is in use (clean), one whose
// finding was fixed long ago is stale (reported), a stale one kept on purpose
// is itself suppressed via glignlint/staleignore, and one naming no
// registered analyzer is reported.
package par

import "sync"

// detach launches without a join; the directive below matches the live
// finding, so it is used and staleignore stays quiet about it.
func detach(work func()) {
	//lint:ignore glignlint/waitjoin fixture: fire-and-forget launch kept to exercise directive matching
	go work()
}

// joined was fixed to wait on its worker, but the directive rotted in place:
// it matches nothing now and staleignore reports it.
//
//lint:ignore glignlint/waitjoin fixture: stale — the launch below was given a WaitGroup join
func joined(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// alsoJoined keeps its retired directive on purpose (say, for an imminent
// revert); the staleignore directive above it silences the stale report.
func alsoJoined(work func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	//lint:ignore glignlint/staleignore fixture: retired suppression kept for an imminent revert
	//lint:ignore glignlint/waitjoin fixture: stale on purpose — the launch is channel-joined
	<-done
}

// subsetOnly carries a directive naming an analyzer (hotalloc) that the
// staleignore fixture test deliberately leaves unselected: a subset run
// cannot judge such a directive, so it must never be reported stale there —
// only a run that actually selects hotalloc may decide.
func subsetOnly(n int) []int {
	//lint:ignore glignlint/hotalloc fixture: judged only when hotalloc itself is selected
	return make([]int, n)
}

// typo names an analyzer the registry does not have, so its directive can
// never match a finding: staleignore reports it whatever the selection.
func typo(work func()) {
	//lint:ignore glignlint/atomicmx fixture: misspelt atomicmix, silences nothing
	work()
}
