package core

import (
	"sync/atomic"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// Arena keeps, for one owner — a glign.Runtime, a serve.Server — the
// per-batch structures that have the same shape batch after batch, so that a
// warmed owner's batch allocates only what it hands its caller (the extracted
// result vectors). It is the paper's one resident ValArray (§3.5; Table 11
// counts it once) plus what this implementation keeps beside it:
//
//   - the batch value array, which prepareBatch, runJacobi, runApart and
//     Query-Parallel take and BatchResult.Release hands back;
//   - the Jacobi state of runJacobi: its slabs (jacobiSlabs), taken
//     and returned inside the run, and the jacobiGeometry of the owner's
//     graph, which is immutable and so shared rather than taken;
//   - the push state of the frontier engines (pushState): their frontier
//     pair, lane masks, lane frontiers and push accumulators, which drive
//     takes once a batch and returns only from a batch that reached its fixed
//     point, so it comes back clean with the member lists its frontiers grew.
//
// The zero Arena is empty and ready: nothing is allocated until a batch needs
// it, and each structure stays at the largest size a batch has needed for as
// long as the owner lives. Every method also works on a nil *Arena, where a
// take allocates and a release is dropped — what Options.Arena == nil means —
// so engines have one code path.
//
// Batches may share an arena concurrently. Each structure is a one-slot
// exchange: a take empties the slot, and a batch that finds it empty — another
// batch of the owner is running — allocates its own and never waits.
type Arena struct {
	vals  atomic.Pointer[queries.Values]
	push  atomic.Pointer[pushState] // clean
	slabs atomic.Pointer[jacobiSlabs]
	geo   atomic.Pointer[jacobiGeometry]
}

// takeValues returns a value array of exactly cells cells with unspecified
// contents: the caller's fill is the only pass over it.
func (a *Arena) takeValues(cells int) *queries.Values {
	return a.spareValues(cells).Resized(cells)
}

// spareValues is takeValues without the new array: the arena's spare at
// exactly cells cells, or nil when it has none that long.
func (a *Arena) spareValues(cells int) *queries.Values {
	if a == nil {
		return nil
	}
	if spare := a.vals.Swap(nil); spare != nil && spare.Cap() >= cells {
		return spare.Resized(cells)
	}
	return nil
}

// releaseValues makes v the array the next takeValues finds. The caller must
// be done with it.
func (a *Arena) releaseValues(v *queries.Values) {
	if a != nil && v != nil {
		a.vals.Store(v)
	}
}

// pushState is what a frontier engine's policy runs on: its frontier pair,
// the lane masks of its design (Glign-Intra's changed-lane mask is masks[0],
// Krill's pair and the hop lanes' both, and the hop lanes' seen mask
// masks[2]), the lane frontiers of Ligra-C and GraphM, and its accumulators,
// one a pool slot's, nil until a batch's push on the slot makes it. drive
// hands it back only at a batch's fixed point, where it is clean: every
// frontier empty, each mask all-zero over its whole capacity (see laneMask;
// releasePush clears the seen mask) and, since every push is followed by an
// Advance, each accumulator empty.
type pushState struct {
	cur, next *frontier.Subset
	masks     [3]*laneMask
	// pairs backs the lane frontiers takeLanes hands out, as many pairs as
	// the widest batch has needed.
	pairs laneFrontiers
	// seen is masks[2] while a hop batch holds it as its seen mask.
	seen *laneMask
	accs []*frontier.Accumulator
	// level is the hop lanes' level row: each lane's value at the vertices
	// it reaches in the current iteration, iter − Alignment[i].
	level *queries.Values
}

// takePush returns the arena's push state, resized to n vertices, with room
// for slots accumulators.
func (a *Arena) takePush(n, slots int) *pushState {
	var s *pushState
	if a != nil {
		s = a.push.Swap(nil)
	}
	if s == nil {
		s = &pushState{cur: frontier.New(n), next: frontier.New(n)}
	}
	s.cur, s.next = s.cur.Resized(n), s.next.Resized(n)
	for i, acc := range s.accs {
		if acc != nil {
			s.accs[i] = acc.Resized(n)
		}
	}
	for len(s.accs) < slots {
		s.accs = append(s.accs, nil)
	}
	return s
}

// takeMask returns mask i, all-zero, for n vertices and b lanes (nil at b = 1,
// see laneMask).
func (s *pushState) takeMask(i, n, b int) *laneMask {
	if b == 1 {
		return nil
	}
	return s.takeWords(i, n, b)
}

// takeLanes returns b empty lane-frontier pairs over n vertices, resized as
// takePush resizes the frontier pair.
func (s *pushState) takeLanes(n, b int) laneFrontiers {
	l := &s.pairs
	for len(l.Cur) < b {
		l.Cur, l.Next = append(l.Cur, frontier.New(n)), append(l.Next, frontier.New(n))
	}
	for i := range b {
		l.Cur[i], l.Next[i] = l.Cur[i].Resized(n), l.Next[i].Resized(n)
	}
	return laneFrontiers{l.Cur[:b], l.Next[:b]}
}

// takeWords is takeMask with a mask at b = 1 too, as the hop lanes' seen
// mask needs.
func (s *pushState) takeWords(i, n, b int) *laneMask {
	w := (b + 63) / 64
	m := s.masks[i]
	if m == nil || cap(m.words) < n*w {
		m = &laneMask{words: make([]atomic.Uint64, n*w)}
		s.masks[i] = m
	}
	m.w, m.words = w, m.words[:n*w]
	return m
}

// setLevel sets the level row to its values at iteration iter for lanes that
// start at the iterations alignment holds.
func (s *pushState) setLevel(alignment []int, iter int) {
	s.level = s.level.Resized(len(alignment))
	for i, a := range alignment {
		s.level.Set(i, queries.Value(iter-a))
	}
}

// releasePush makes s the push state the next takePush finds. Only one
// whose batch ended at its fixed point may come back: it is clean but for the
// seen mask of a hop batch, a word a vertex at up to 64 lanes, which is
// cleared here.
func (a *Arena) releasePush(s *pushState) {
	if a == nil {
		return
	}
	if s.seen != nil {
		clear(s.seen.words)
		s.seen = nil
	}
	a.push.Store(s)
}

// jacobiSlabs are the per-round state of one convergence batch, n·B cells
// each in the rows of Cell. A PageRank batch keeps its values in vals,
// updated in place, and the shares its in-neighbors fold — value over
// out-degree — double-buffered in old and next; every other batch keeps its
// values double-buffered in old and next and leaves vals alone.
type jacobiSlabs struct {
	old, next, vals []queries.Value
}

// takeSlabs returns slabs of exactly cells cells each — vals too when withVals
// — contents unspecified.
func (a *Arena) takeSlabs(cells int, withVals bool) *jacobiSlabs {
	var s *jacobiSlabs
	if a != nil {
		s = a.slabs.Swap(nil)
	}
	if s == nil {
		s = &jacobiSlabs{}
	}
	s.old, s.next = resized(s.old, cells), resized(s.next, cells)
	if withVals {
		s.vals = resized(s.vals, cells)
	}
	return s
}

// resized is s at length cells, reallocated when its capacity is short.
func resized(s []queries.Value, cells int) []queries.Value {
	if cap(s) < cells {
		return make([]queries.Value, cells)
	}
	return s[:cells]
}

// releaseSlabs makes s the slabs the next takeSlabs finds.
func (a *Arena) releaseSlabs(s *jacobiSlabs) {
	if a != nil {
		a.slabs.Store(s)
	}
}

// geometry returns the Jacobi geometry of g, derived — a graph reversal, when
// g is directed — only when the arena's last one was of another graph.
func (a *Arena) geometry(g *graph.Graph) *jacobiGeometry {
	if a == nil {
		return newJacobiGeometry(g)
	}
	geo := a.geo.Load()
	if geo == nil || geo.g != g {
		geo = newJacobiGeometry(g)
		a.geo.Store(geo)
	}
	return geo
}
