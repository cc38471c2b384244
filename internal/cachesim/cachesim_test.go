package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tiny returns a 2-set, 2-way cache with 64-byte lines (256 bytes total).
func tiny() *Cache {
	return New(Config{SizeBytes: 256, Ways: 2, LineSize: 64})
}

func TestColdMissThenHit(t *testing.T) {
	c := tiny()
	c.Access(0, 8, false)
	c.Access(8, 8, false) // same line
	s := c.Stats()
	if s.Accesses != 2 || s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	// Set 0 holds lines with (addr/64) even... with 2 sets, line L maps to
	// set L&1. Lines 0, 2, 4 all map to set 0; 2-way capacity.
	c.Access(0*64, 1, false) // miss, set0 = [0]
	c.Access(2*64, 1, false) // miss, set0 = [2,0]
	c.Access(0*64, 1, false) // hit,  set0 = [0,2]
	c.Access(4*64, 1, false) // miss, evicts LRU line 2; set0 = [4,0]
	c.Access(0*64, 1, false) // hit
	c.Access(2*64, 1, false) // miss (was evicted)
	s := c.Stats()
	if s.Misses != 4 || s.Hits != 2 {
		t.Fatalf("stats = %+v, want 4 misses / 2 hits", s)
	}
}

func TestAccessSpanningLines(t *testing.T) {
	c := tiny()
	// 16 bytes starting at byte 56 straddles lines 0 and 1.
	c.Access(56, 16, true)
	s := c.Stats()
	if s.Accesses != 2 || s.Misses != 2 || s.Writes != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestZeroSizeAccessTouchesOneLine(t *testing.T) {
	c := tiny()
	c.Access(100, 0, false)
	if c.Stats().Accesses != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestWorkingSetWithinCapacityOnlyColdMisses(t *testing.T) {
	cfg := Config{SizeBytes: 4096, Ways: 4, LineSize: 64} // 64 lines
	c := New(cfg)
	rng := rand.New(rand.NewSource(1))
	// Touch 16 distinct lines (well within one way-group per set) many times.
	for i := 0; i < 10000; i++ {
		line := int64(rng.Intn(16))
		c.Access(line*64, 8, false)
	}
	s := c.Stats()
	if s.Misses != 16 {
		t.Fatalf("misses = %d, want 16 cold misses only", s.Misses)
	}
}

func TestStreamingLargerThanCacheMostlyMisses(t *testing.T) {
	c := New(DefaultLLC())
	// Stream 16 MiB twice: 8x the 2 MiB capacity, so the second pass also
	// misses everywhere (LRU has evicted the head by the time we wrap).
	total := int64(16 << 20)
	for pass := 0; pass < 2; pass++ {
		for addr := int64(0); addr < total; addr += 64 {
			c.Access(addr, 8, false)
		}
	}
	s := c.Stats()
	if s.Hits != 0 {
		t.Fatalf("streaming should never hit, got %d hits", s.Hits)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 256, Ways: 2, LineSize: 48},  // non-power-of-two line
		{SizeBytes: 256, Ways: 0, LineSize: 64},  // zero ways
		{SizeBytes: 200, Ways: 2, LineSize: 64},  // size not multiple
		{SizeBytes: 384, Ways: 2, LineSize: 64},  // 3 sets, not power of two
		{SizeBytes: 0, Ways: 2, LineSize: 64},    // empty
		{SizeBytes: 256, Ways: 2, LineSize: -64}, // negative line
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if DefaultLLC().Validate() != nil {
		t.Fatal("default LLC invalid")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New should panic on invalid geometry")
		}
	}()
	New(Config{SizeBytes: 100, Ways: 3, LineSize: 60})
}

// Properties: hits+misses == accesses; a fully-associative-equivalent
// reference model agrees with the set-associative model on a single-set
// configuration.
func TestQuickStatsConsistent(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := tiny()
		for _, a := range addrs {
			c.Access(int64(a), 8, a%3 == 0)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses && s.Misses >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Reference LRU for a single-set (fully associative) cache.
func TestQuickMatchesReferenceLRU(t *testing.T) {
	const ways = 4
	f := func(addrs []uint8) bool {
		c := New(Config{SizeBytes: 64 * ways, Ways: ways, LineSize: 64})
		var ref []int64 // MRU-first
		var refMisses int64
		for _, a := range addrs {
			line := int64(a) // one line per 64 bytes; addr = line*64
			c.Access(line*64, 1, false)
			found := -1
			for i, l := range ref {
				if l == line {
					found = i
					break
				}
			}
			if found >= 0 {
				ref = append([]int64{line}, append(ref[:found], ref[found+1:]...)...)
			} else {
				refMisses++
				ref = append([]int64{line}, ref...)
				if len(ref) > ways {
					ref = ref[:ways]
				}
			}
		}
		return c.Misses() == refMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
