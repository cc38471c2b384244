package frontier

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/glign/glign/internal/graph"
)

func TestAddContainsCount(t *testing.T) {
	s := New(200)
	if !s.Add(5) || !s.Add(63) || !s.Add(64) || !s.Add(199) {
		t.Fatal("fresh Add returned false")
	}
	if s.Add(5) {
		t.Fatal("duplicate Add returned true")
	}
	if s.Count() != 4 {
		t.Fatalf("count = %d, want 4", s.Count())
	}
	for _, v := range []graph.VertexID{5, 63, 64, 199} {
		if !s.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	if s.Contains(6) || s.Contains(0) {
		t.Fatal("contains non-member")
	}
}

func TestSparseSortedAndCached(t *testing.T) {
	s := FromVertices(100, 17, 3, 99, 64, 63)
	sp := s.Sparse()
	want := []graph.VertexID{3, 17, 63, 64, 99}
	if len(sp) != len(want) {
		t.Fatalf("sparse = %v", sp)
	}
	for i := range want {
		if sp[i] != want[i] {
			t.Fatalf("sparse = %v, want %v", sp, want)
		}
	}
	// Cache invalidation on mutation.
	s.Add(50)
	sp = s.Sparse()
	if len(sp) != 6 || sp[2] != 50 {
		t.Fatalf("sparse after Add = %v", sp)
	}
}

func TestAddSyncConcurrent(t *testing.T) {
	const n = 1 << 14
	s := New(n)
	var wg sync.WaitGroup
	var winners [n]int32
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4*n; i++ {
				v := graph.VertexID(rng.Intn(n))
				if s.AddSync(v) {
					// Exactly one goroutine may win per vertex; count wins
					// racily is fine because wins are unique by contract.
					winners[v]++
				}
			}
		}(int64(w))
	}
	wg.Wait()
	total := 0
	for v := 0; v < n; v++ {
		if winners[v] > 1 {
			t.Fatalf("vertex %d inserted twice", v)
		}
		if winners[v] == 1 {
			total++
		}
	}
	if s.Count() != total {
		t.Fatalf("count = %d, want %d", s.Count(), total)
	}
}

func TestClearAndClone(t *testing.T) {
	s := FromVertices(64, 1, 2, 3)
	c := s.Clone()
	s.Clear()
	if !s.IsEmpty() || s.Count() != 0 {
		t.Fatal("clear failed")
	}
	if c.Count() != 3 || !c.Contains(2) {
		t.Fatal("clone shares storage with original")
	}
}

func TestUnionAndOverlap(t *testing.T) {
	a := FromVertices(128, 1, 2, 3, 64)
	b := FromVertices(128, 3, 64, 100)
	if got := a.OverlapCount(b); got != 2 {
		t.Fatalf("overlap = %d, want 2", got)
	}
	a.UnionWith(b)
	if a.Count() != 5 {
		t.Fatalf("union count = %d, want 5", a.Count())
	}
	for _, v := range []graph.VertexID{1, 2, 3, 64, 100} {
		if !a.Contains(v) {
			t.Fatalf("union missing %d", v)
		}
	}
}

func TestQuickSubsetMatchesMap(t *testing.T) {
	f := func(vals []uint16) bool {
		const n = 1 << 16
		s := New(n)
		ref := map[graph.VertexID]bool{}
		for _, x := range vals {
			v := graph.VertexID(x)
			added := s.Add(v)
			if added == ref[v] {
				return false // Add must return true exactly on first insert
			}
			ref[v] = true
		}
		if s.Count() != len(ref) {
			return false
		}
		for _, v := range s.Sparse() {
			if !ref[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachOrder(t *testing.T) {
	s := FromVertices(300, 299, 0, 150)
	var got []graph.VertexID
	s.ForEach(func(v graph.VertexID) { got = append(got, v) })
	if len(got) != 3 || got[0] != 0 || got[1] != 150 || got[2] != 299 {
		t.Fatalf("order = %v", got)
	}
}

func TestWordsBytes(t *testing.T) {
	s := New(129) // 3 words
	if s.WordsBytes() != 24 {
		t.Fatalf("bytes = %d, want 24", s.WordsBytes())
	}
}

func TestQueryMask(t *testing.T) {
	m := NewQueryMask(100)
	if m.AnyActive() {
		t.Fatal("fresh mask active")
	}
	if nb, first := m.Set(5, 0); !nb || !first {
		t.Fatal("first Set should report new bit + fresh-vertex transition")
	}
	if nb, first := m.Set(5, 3); !nb || first {
		t.Fatal("second query on same vertex: want new bit, no transition")
	}
	if nb, _ := m.Set(5, 3); nb {
		t.Fatal("duplicate Set reported new bit")
	}
	if m.Get(5) != 0b1001 {
		t.Fatalf("mask = %b", m.Get(5))
	}
	if m.ActiveVertices() != 1 {
		t.Fatalf("active = %d", m.ActiveVertices())
	}
	m.Set(6, 63)
	if m.ActiveVertices() != 2 || !m.AnyActive() {
		t.Fatal("activity tracking broken")
	}
	m.Clear()
	if m.AnyActive() || m.Get(5) != 0 {
		t.Fatal("clear failed")
	}
	if m.Bytes() != 800 {
		t.Fatalf("bytes = %d", m.Bytes())
	}
}

func TestQueryMaskConcurrent(t *testing.T) {
	m := NewQueryMask(1024)
	var wg sync.WaitGroup
	for q := 0; q < 16; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for v := 0; v < 1024; v++ {
				m.Set(graph.VertexID(v), q)
			}
		}(q)
	}
	wg.Wait()
	if m.ActiveVertices() != 1024 {
		t.Fatalf("active = %d, want 1024", m.ActiveVertices())
	}
	want := uint64(1<<16 - 1)
	for v := 0; v < 1024; v++ {
		if m.Get(graph.VertexID(v)) != want {
			t.Fatalf("v%d mask = %b", v, m.Get(graph.VertexID(v)))
		}
	}
}
