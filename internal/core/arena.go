package core

import (
	"sync/atomic"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// Arena keeps, for one owner — a glign.Runtime, a serve.Server — the
// per-batch structures that have the same shape batch after batch, so that a
// warmed owner's batch allocates only what it hands its caller (the extracted
// result vectors). It is the paper's one resident ValArray (§3.5; Table 11
// counts it once) plus what this implementation keeps beside it:
//
//   - the batch value array, which PrepareBatch, RunConvergenceBatch and
//     RunApart take and BatchResult.Release hands back;
//   - the Jacobi state of RunConvergenceBatch: its slabs (jacobiSlabs), taken
//     and returned inside the run, and the jacobiGeometry of the owner's
//     graph, which is immutable and so shared rather than taken;
//   - the changed-lane mask of the query-oblivious engine, returned only by a
//     batch that reached its fixed point (see laneMask).
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
	mask  atomic.Pointer[laneMask] // all-zero over its whole capacity
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

// takeMask returns an all-zero changed-lane mask for n vertices and b lanes
// (nil at b = 1, see laneMask).
func (a *Arena) takeMask(n, b int) *laneMask {
	if b == 1 {
		return nil
	}
	w := (b + 63) / 64
	if a != nil {
		if m := a.mask.Swap(nil); m != nil && cap(m.words) >= n*w {
			m.w, m.words = w, m.words[:n*w]
			return m
		}
	}
	return &laneMask{w, make([]uint64, n*w)}
}

// releaseMask makes m the mask the next takeMask finds. Only a mask that is
// all-zero may come back — one whose batch ended at its fixed point.
func (a *Arena) releaseMask(m *laneMask) {
	if a != nil && m != nil {
		a.mask.Store(m)
	}
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
