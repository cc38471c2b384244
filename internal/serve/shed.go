package serve

import (
	"errors"
	"fmt"
)

// ErrShed completes a queued ticket that was sacrificed under overload: the
// admission queue was at capacity and a strictly higher-priority query
// arrived, so the lowest-tier, newest-arrival queued slot was dropped to
// make room (shed-low-first; see SERVING.md §"Priority tiers and shedding").
var ErrShed = errors.New("serve: query shed for a higher-priority arrival under overload")

// Tier is a query's admission priority class. The zero value is TierNormal,
// so SubmitOptions without an explicit tier get the default class; ordering
// is numeric (TierLow < TierNormal < TierHigh) and shedding only ever
// sacrifices a tier strictly below the arriving query's.
type Tier int8

// The three priority tiers, lowest first.
const (
	TierLow    Tier = -1
	TierNormal Tier = 0
	TierHigh   Tier = 1
)

// NumTiers is the number of priority tiers (the length of the per-tier
// shed-counter array; index a tier with tierIndex).
const NumTiers = 3

// tierIndex maps a tier to its array slot: 0 low, 1 normal, 2 high — the
// index order of ServingMetrics.ShedByTier.
func tierIndex(t Tier) int { return int(t) + 1 }

// String returns the tier's wire name ("low", "normal", "high").
func (t Tier) String() string {
	switch t {
	case TierLow:
		return "low"
	case TierNormal:
		return "normal"
	case TierHigh:
		return "high"
	}
	return fmt.Sprintf("Tier(%d)", int8(t))
}

// TierByName parses a wire tier name; the empty string is TierNormal so
// request payloads can omit the field.
func TierByName(name string) (Tier, error) {
	switch name {
	case "low":
		return TierLow, nil
	case "", "normal":
		return TierNormal, nil
	case "high":
		return TierHigh, nil
	}
	return TierNormal, fmt.Errorf("serve: unknown priority tier %q (low, normal, high)", name)
}

// shedLocked picks, removes, counts and returns the shed victim for an
// arriving query of the given tier, or nil when nothing sheddable is queued.
// Must be called with s.mu held; the caller completes the victim's tickets
// with ErrShed after unlocking.
//
// Victim policy: only slots still on the admission queue are sheddable —
// slots in a running batch are already committed. Among sheddable slots
// strictly below the incoming tier, the lowest tier loses first; within that tier the newest arrival is
// sacrificed (it has waited least, so dropping it preserves FIFO fairness
// for older queries).
func (s *Server) shedLocked(incoming Tier) *slot {
	victim := -1
	for i, sl := range s.queue {
		if sl.tier >= incoming {
			continue
		}
		if victim < 0 || sl.tier < s.queue[victim].tier ||
			(sl.tier == s.queue[victim].tier && sl.seq > s.queue[victim].seq) {
			victim = i
		}
	}
	if victim < 0 {
		return nil
	}
	sl := s.queue[victim]
	s.queue = append(s.queue[:victim], s.queue[victim+1:]...)
	s.keys.retire(sl, nil, 0)
	s.stats.Shed++
	s.stats.ShedByTier[tierIndex(sl.tier)]++
	return sl
}
