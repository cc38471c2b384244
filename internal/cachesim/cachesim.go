package cachesim

import (
	"fmt"
	"math/bits"
)

// Config describes a cache.
type Config struct {
	// SizeBytes is total capacity; must be a multiple of LineSize*Ways.
	SizeBytes int64
	// Ways is the associativity.
	Ways int
	// LineSize is the cache-line size in bytes (power of two).
	LineSize int64
}

// DefaultLLC returns the scaled-down last-level cache used throughout the
// experiment harness.
func DefaultLLC() Config {
	return Config{SizeBytes: 2 << 20, Ways: 16, LineSize: 64}
}

// Stats summarizes a simulation.
type Stats struct {
	Accesses int64
	Hits     int64
	Misses   int64
	Writes   int64
}

// Cache is a set-associative LRU cache. It implements memtrace.Tracer.
// It is not safe for concurrent use; tracing runs are single-threaded.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   int64
	// sets[s] holds up to Ways line tags in LRU order: index 0 is the most
	// recently used. Tags are full line addresses (addr >> lineShift).
	sets  [][]int64
	stats Stats
}

// New builds a cache from cfg. It panics on invalid geometry (caller
// configuration is compile-time constant in practice); use Validate to
// check dynamic configurations.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / (cfg.LineSize * int64(cfg.Ways))
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		setMask:   nSets - 1,
		sets:      make([][]int64, nSets),
	}
	for i := range c.sets {
		c.sets[i] = make([]int64, 0, cfg.Ways)
	}
	return c
}

// Validate checks the geometry: positive power-of-two line size, positive
// ways, size a power-of-two multiple of LineSize*Ways.
func (cfg Config) Validate() error {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		return fmt.Errorf("cachesim: line size %d not a positive power of two", cfg.LineSize)
	}
	if cfg.Ways <= 0 {
		return fmt.Errorf("cachesim: ways %d must be positive", cfg.Ways)
	}
	wayBytes := cfg.LineSize * int64(cfg.Ways)
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%wayBytes != 0 {
		return fmt.Errorf("cachesim: size %d not a multiple of line*ways=%d", cfg.SizeBytes, wayBytes)
	}
	nSets := cfg.SizeBytes / wayBytes
	if nSets&(nSets-1) != 0 {
		return fmt.Errorf("cachesim: set count %d not a power of two", nSets)
	}
	return nil
}

// Access implements memtrace.Tracer: it touches every line overlapped by
// [addr, addr+size).
func (c *Cache) Access(addr int64, size int64, write bool) {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineShift
	last := (addr + size - 1) >> c.lineShift
	for line := first; line <= last; line++ {
		c.touch(line, write)
	}
}

func (c *Cache) touch(line int64, write bool) {
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	}
	set := c.sets[line&c.setMask]
	for i, tag := range set {
		if tag == line {
			// Hit: move to front.
			copy(set[1:i+1], set[:i])
			set[0] = line
			c.stats.Hits++
			return
		}
	}
	// Miss: insert at front, evicting LRU if full.
	c.stats.Misses++
	if len(set) < c.cfg.Ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[line&c.setMask] = set
}

// Stats returns the counters so far.
func (c *Cache) Stats() Stats { return c.stats }

// Misses returns the miss count so far.
func (c *Cache) Misses() int64 { return c.stats.Misses }
