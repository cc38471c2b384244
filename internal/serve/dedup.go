package serve

import (
	"time"

	"github.com/glign/glign/internal/queries"
)

// slot is one batch slot of pending work: a query plus every ticket
// coalesced onto it. In-flight deduplication means equivalent submissions
// (same queries.Key, same epoch) share one slot — the slot occupies one
// unit of admission capacity and one lane of an evaluation batch, and its
// result fans out to every waiter. tickets and done are guarded by the
// server's mu; the other fields are immutable after creation (tier may be
// promoted under mu by a joiner, which matters only while the slot is still
// queued and so sheddable).
type slot struct {
	query queries.Query
	key   queries.Key
	seq   int
	tier  Tier

	tickets []*Ticket
	done    bool
}

// joinLocked coalesces t onto an existing pending slot for key, if one
// exists. Must be called with s.mu held. A join consumes no admission
// capacity; a higher-tier joiner promotes the slot (protecting it from
// shedding).
func (s *Server) joinLocked(key queries.Key, t *Ticket) bool {
	sl := s.inflight[key]
	if sl == nil || sl.done {
		return false
	}
	sl.tickets = append(sl.tickets, t)
	if t.tier > sl.tier {
		sl.tier = t.tier
	}
	return true
}

// completeSlot fans one result (or error) out to every waiter of a slot,
// exactly once per ticket, and retires the slot from the dedup index so
// later equivalent submissions start fresh (they will normally hit the
// cache instead — runBatch installs the cache entry before calling this,
// and submissions consult the cache and the dedup index under one lock, so
// there is no window in which a repeat query finds neither).
func (s *Server) completeSlot(sl *slot, vals []queries.Value, epoch int64, err error) {
	s.mu.Lock()
	ts := sl.tickets
	sl.tickets = nil
	sl.done = true
	if s.inflight[sl.key] == sl {
		delete(s.inflight, sl.key)
	}
	s.mu.Unlock()
	for _, t := range ts {
		t.epoch = epoch
		s.finish(t, vals, err)
	}
	if err == nil {
		s.stats.completed.Add(int64(len(ts)))
	}
}

// resolveDead resolves the canceled and deadline-expired waiters of a slot
// the serving loop has just taken off the queue, reporting whether the slot
// emptied out entirely (in which case it is retired from the dedup index).
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
			s.stats.canceled.Add(1)
			dead = append(dead, t)
			errs = append(errs, t.ctx.Err())
		case !t.deadline.IsZero() && !now.Before(t.deadline):
			s.stats.deadlineMisses.Add(1)
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
		sl.done = true
		if s.inflight[sl.key] == sl {
			delete(s.inflight, sl.key)
		}
	}
	s.mu.Unlock()
	for i, t := range dead {
		s.finish(t, nil, errs[i])
	}
	return empty
}
