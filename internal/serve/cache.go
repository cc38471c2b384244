package serve

import (
	"sync"

	"github.com/glign/glign/internal/queries"
)

// cacheEntry is one cached result vector plus the epoch it was computed at
// and its position in the LRU list.
type cacheEntry struct {
	key        queries.Key
	values     []queries.Value
	epoch      int64
	prev, next *cacheEntry
}

// resultCache is the server's result cache, keyed by computation
// (queries.Key): production traffic is skewed and repetitive, and on one
// graph snapshot equal keys have identical fixed points. It is a
// mutex-guarded LRU map whose entries carry the data epoch they were
// computed at. Invalidation is epoch-based and lazy — a lookup whose entry
// epoch disagrees with the server's current epoch drops the entry and
// misses, so BumpEpoch costs O(1) and stale results can never be served
// (SERVING.md documents the full contract). Cached value slices are shared
// with every waiter and must be treated as immutable.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[queries.Key]*cacheEntry
	// head is the most recently used entry, tail the eviction candidate.
	head, tail *cacheEntry
}

// newResultCache returns an empty cache bounded to capacity entries
// (capacity must be positive; a disabled cache is a nil *resultCache).
func newResultCache(capacity int) *resultCache {
	return &resultCache{capacity: capacity, entries: make(map[queries.Key]*cacheEntry)}
}

// get looks key up under the given current epoch. ok reports a serveable
// hit; stale reports that an entry existed but carried a mismatched epoch
// and was dropped. On a hit the entry is promoted to most-recently-used and
// its values plus the epoch they were computed at are returned.
func (c *resultCache) get(key queries.Key, epoch int64) (vals []queries.Value, entryEpoch int64, ok, stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil, 0, false, false
	}
	if e.epoch != epoch {
		c.unlink(e)
		delete(c.entries, key)
		return nil, 0, false, true
	}
	c.unlink(e)
	c.pushFront(e)
	return e.values, e.epoch, true, false
}

// put installs (or refreshes) key's result for the given epoch, reporting
// whether the capacity bound evicted the least-recently-used entry.
func (c *resultCache) put(key queries.Key, vals []queries.Value, epoch int64) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		e.values, e.epoch = vals, epoch
		c.unlink(e)
		c.pushFront(e)
		return false
	}
	e := &cacheEntry{key: key, values: vals, epoch: epoch}
	c.entries[key] = e
	c.pushFront(e)
	if len(c.entries) > c.capacity {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.key)
		return true
	}
	return false
}

// len returns the entry count; nil-safe so a disabled cache reads as empty.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// unlink removes e from the LRU list (no-op if already unlinked).
func (c *resultCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most-recently-used entry.
func (c *resultCache) pushFront(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}
