package serve

import (
	"sync"
	"time"
)

// Clock is the server's time source, so tests can substitute a FakeClock
// and drive deadline misses deterministically. The zero Config uses the real
// wall clock.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
}

// RealClock returns the wall clock (time.Now).
func RealClock() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced Clock for deterministic tests: time
// stands still until Advance moves it.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewFakeClock returns a fake clock reading start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}
