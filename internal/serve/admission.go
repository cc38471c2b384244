package serve

import (
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/sched"
)

// rankPendingLocked reorders the server's pending queue in place with the
// batching policy's closestHV ranking (sched.Affinity.Rank) and counts the
// displaced queries into admission_reorders. Must be called with s.mu held;
// the serving loop invokes it exactly when the queue holds more than one batch,
// which is the only time ordering changes batch composition (a queue of at
// most one batch flushes together and the policy ranks within it anyway).
//
// Ranking is re-applied over the whole pending population on every
// oversized drain, so a freshly arrived query with a closer affinity to the
// forming batch can overtake older queries. SERVING.md documents the
// fairness consequences (and the deadline/shed pressure valves that bound
// them).
func (s *Server) rankPendingLocked() {
	qs := make([]queries.Query, len(s.queue))
	for i, sl := range s.queue {
		qs[i] = sl.query
	}
	idx := sched.Affinity{Profile: s.prof}.Rank(qs)
	ranked := make([]*slot, len(idx))
	displaced := 0
	for i, bi := range idx {
		if bi != i {
			displaced++
		}
		ranked[i] = s.queue[bi]
	}
	s.queue = ranked
	s.stats.AdmissionReorders += int64(displaced)
}
