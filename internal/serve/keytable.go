package serve

import (
	"container/list"
	"time"

	"github.com/glign/glign/internal/queries"
)

// slot is one batch slot of pending work: a query plus every ticket
// coalesced onto it. In-flight deduplication means equivalent submissions
// (same queries.Key, same epoch) share one slot — the slot occupies one
// unit of admission capacity and one lane of an evaluation batch, and its
// result fans out to every waiter. tickets is guarded by the server's mu;
// the other fields are immutable after creation (tier may be promoted under
// mu by a joiner, which matters only while the slot is still queued and so
// sheddable).
type slot struct {
	query queries.Query
	key   queries.Key
	seq   int
	tier  Tier

	tickets []*Ticket
}

// entry is one key's row in the key table: the pending slot computing it,
// stamped with the epoch the slot was admitted at, or, once that slot has
// completed, its result vector, stamped with the epoch it was computed at.
type entry struct {
	epoch  int64
	slot   *slot // non-nil while pending
	values []queries.Value
	lru    *list.Element // a result's place in keyTable.lru
}

// keyTable is the server's one index by computation (queries.Key), guarded
// by Server.mu: each key holds at most one entry, so a cache hit, a dedup
// join and a stale drop are one map read, and a repeat query arriving around
// a slot's completion finds either the slot or its result. Results are
// LRU-bounded to capacity; production traffic is skewed and repetitive, and
// on one graph snapshot equal keys have identical fixed points. An entry of
// another epoch than the server's is never joined or served, so BumpEpoch
// touches nothing here: a stale result is dropped at its next lookup, and a
// stale slot is displaced by the next equivalent admission (SERVING.md §2–3).
// Result vectors are shared with every waiter and must be treated as
// immutable.
type keyTable struct {
	capacity int // bound on results; 0 disables caching
	entries  map[queries.Key]*entry
	lru      list.List // results' keys, most recently used first
}

// get returns key's entry if it belongs to epoch, promoting a result to most
// recently used. A result of another epoch is dropped and reported stale; a
// slot of another epoch stays until it completes or is displaced.
func (kt *keyTable) get(key queries.Key, epoch int64) (e *entry, stale bool) {
	e = kt.entries[key]
	switch {
	case e == nil:
		return nil, false
	case e.epoch == epoch:
		if e.slot == nil {
			kt.lru.MoveToFront(e.lru)
		}
		return e, false
	case e.slot == nil:
		kt.lru.Remove(e.lru)
		delete(kt.entries, key)
		return nil, true
	}
	return nil, false
}

// retire removes sl's entry once sl is done, or, when vals is non-nil and
// caching is on, keeps vals there as the key's result at epoch, evicting the
// least recently used result past capacity. An entry a newer slot has taken
// over is left alone. It reports whether a result was evicted.
func (kt *keyTable) retire(sl *slot, vals []queries.Value, epoch int64) (evicted bool) {
	e := kt.entries[sl.key]
	if e == nil || e.slot != sl {
		return false
	}
	if vals == nil || kt.capacity == 0 {
		delete(kt.entries, sl.key)
		return false
	}
	e.slot, e.values, e.epoch = nil, vals, epoch
	e.lru = kt.lru.PushFront(sl.key)
	if kt.lru.Len() <= kt.capacity {
		return false
	}
	delete(kt.entries, kt.lru.Remove(kt.lru.Back()).(queries.Key))
	return true
}

// completeSlot fans one result (or error) out to every waiter of a slot,
// exactly once per ticket, and in the same critical section turns the slot's
// key-table entry into the cached result — unless an epoch bump has moved
// past the epoch it was computed at — or retires it.
func (s *Server) completeSlot(sl *slot, vals []queries.Value, epoch int64, err error) {
	cached := vals
	s.mu.Lock()
	ts := sl.tickets
	sl.tickets = nil
	if s.epoch.Load() != epoch {
		cached = nil
	}
	if s.keys.retire(sl, cached, epoch) {
		s.stats.CacheEvictions++
	}
	if err == nil {
		s.stats.Completed += int64(len(ts))
	}
	s.mu.Unlock()
	for _, t := range ts {
		t.epoch = epoch
		s.finish(t, vals, err)
	}
}

// resolveDead resolves the canceled and deadline-expired waiters of a slot
// the serving loop has just taken off the queue, reporting whether the slot
// emptied out entirely (in which case it is retired from the key table).
// Deadlines and cancellation are per-ticket: one waiter's cancel never
// suppresses the computation other waiters of the same slot are still owed.
func (s *Server) resolveDead(sl *slot, now time.Time) bool {
	var dead []*Ticket
	var errs []error
	s.mu.Lock()
	kept := sl.tickets[:0]
	for _, t := range sl.tickets {
		switch {
		case t.ctx.Err() != nil:
			s.stats.Canceled++
			dead = append(dead, t)
			errs = append(errs, t.ctx.Err())
		case !t.deadline.IsZero() && !now.Before(t.deadline):
			s.stats.DeadlineMisses++
			dead = append(dead, t)
			errs = append(errs, ErrDeadline)
		default:
			s.admissionWait.Observe(now.Sub(t.admitted).Nanoseconds())
			kept = append(kept, t)
		}
	}
	sl.tickets = kept
	empty := len(kept) == 0
	if empty {
		s.keys.retire(sl, nil, 0)
	}
	s.mu.Unlock()
	for i, t := range dead {
		s.finish(t, nil, errs[i])
	}
	return empty
}
