package frontier

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/glign/glign/internal/graph"
)

// Shared generator helper for the property tests below: genSubset draws a
// random subset of [0, n) with the given number of insertion attempts
// (duplicates allowed, as in real frontier construction) and returns both
// the Subset and an independent reference member map. Deterministic in rng.
func genSubset(rng *rand.Rand, n, adds int) (*Subset, map[graph.VertexID]bool) {
	s := New(n)
	ref := make(map[graph.VertexID]bool, adds)
	for i := 0; i < adds; i++ {
		v := graph.VertexID(rng.Intn(n))
		s.Add(v)
		ref[v] = true
	}
	return s, ref
}

// quickCfg returns the quick.Check config the frontier properties share: a
// seeded source so failures replay, and enough rounds to cover word
// boundaries and empty/full corners.
func quickCfg(seed int64, rounds int) *quick.Config {
	return &quick.Config{
		MaxCount: rounds,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

// Property: sparse -> dense -> sparse round-trips exactly. Building a
// Subset from any vertex list and materializing it back yields the sorted
// deduplicated list, and rebuilding from that list yields an equal bitmap.
func TestQuickSparseDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(1<<12)
		s, ref := genSubset(rng, n, rng.Intn(2*n))
		sp := s.Sparse()
		if len(sp) != len(ref) || s.Count() != len(ref) {
			return false
		}
		for i, v := range sp {
			if !ref[v] {
				return false
			}
			if i > 0 && sp[i-1] >= v {
				return false // sorted, strictly increasing
			}
		}
		back := FromVertices(n, sp...)
		if back.Count() != s.Count() {
			return false
		}
		for i, w := range wordsOf(back) {
			if w != wordsOf(s)[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(1, 150)); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone is fully independent — mutating either side never shows
// through the other, and the clone preserves membership and count.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(1<<10)
		s, ref := genSubset(rng, n, rng.Intn(n))
		c := s.Clone()
		if c.Count() != s.Count() {
			return false
		}
		for v := range ref {
			if !c.Contains(v) {
				return false
			}
		}
		// Mutate both sides disjointly; neither mutation may leak across.
		var addedToS, addedToC graph.VertexID
		addedToS = graph.VertexID(rng.Intn(n))
		for {
			addedToC = graph.VertexID(rng.Intn(n))
			if addedToC != addedToS {
				break
			}
		}
		sHadC := s.Contains(addedToC)
		cHadS := c.Contains(addedToS)
		s.Add(addedToS)
		c.Add(addedToC)
		if !s.Contains(addedToS) || !c.Contains(addedToC) {
			return false
		}
		if s.Contains(addedToC) != sHadC || c.Contains(addedToS) != cHadS {
			return false
		}
		// Clearing the original must leave the clone intact.
		snapshot := c.Count()
		s.Clear()
		return c.Count() == snapshot && s.Count() == 0
	}
	if err := quick.Check(f, quickCfg(2, 150)); err != nil {
		t.Fatal(err)
	}
}

// Property: subset union/intersection laws. UnionWith is idempotent and
// commutative in effect, and inclusion-exclusion holds:
// |A ∪ B| = |A| + |B| - |A ∩ B|.
func TestQuickUnionIntersectionLaws(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(1<<10)
		a, _ := genSubset(rng, n, rng.Intn(n))
		b, _ := genSubset(rng, n, rng.Intn(n))
		inter := overlap(a, b)
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		if ab.Count() != ba.Count() {
			return false // union is commutative (in cardinality and members)
		}
		for i, w := range wordsOf(ab) {
			if w != wordsOf(ba)[i] {
				return false
			}
		}
		if ab.Count() != a.Count()+b.Count()-inter {
			return false // inclusion-exclusion
		}
		again := ab.Clone()
		again.UnionWith(b)
		if again.Count() != ab.Count() {
			return false // idempotent
		}
		// The union must contain exactly the members of both sides.
		if overlap(ab, a) != a.Count() || overlap(ab, b) != b.Count() {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg(3, 150)); err != nil {
		t.Fatal(err)
	}
}

// overlap returns |a ∩ b|, word by word.
func overlap(a, b *Subset) int {
	total := 0
	for i, w := range wordsOf(a) {
		total += bits.OnesCount64(w & wordsOf(b)[i])
	}
	return total
}

// unionOfReference is the bit-by-bit oracle for UnionOf: per-vertex
// membership tests, no word-level tricks.
func unionOfReference(parts ...*Subset) (map[graph.VertexID]bool, int) {
	ref := make(map[graph.VertexID]bool)
	n := parts[0].Universe()
	for v := 0; v < n; v++ {
		for _, p := range parts {
			if p.Contains(graph.VertexID(v)) {
				ref[graph.VertexID(v)] = true
				break
			}
		}
	}
	return ref, len(ref)
}

// TestUnionOfWordBoundaries pins the word-level union and popcount at the
// exact universe sizes where word arithmetic goes wrong: one bit short of a
// word (63), a full word (64), one bit into the second word (65), and
// non-multiple-of-64 tails. Every lane-count and membership corner is checked
// against the bit-by-bit reference.
func TestUnionOfWordBoundaries(t *testing.T) {
	universes := []int{1, 63, 64, 65, 127, 128, 129, 191, 1000}
	laneCounts := []int{1, 2, 8, 16}
	rng := rand.New(rand.NewSource(0x91159))
	for _, n := range universes {
		for _, lanes := range laneCounts {
			parts := make([]*Subset, lanes)
			for i := range parts {
				parts[i] = New(n)
				// Sprinkle members with bias toward word edges and the tail.
				for k := 0; k < 1+rng.Intn(n); k++ {
					parts[i].Add(graph.VertexID(rng.Intn(n)))
				}
				for _, edge := range []int{0, 62, 63, 64, n - 2, n - 1} {
					if edge >= 0 && edge < n && rng.Intn(2) == 0 {
						parts[i].Add(graph.VertexID(edge))
					}
				}
			}
			u := UnionOf(nil, 2, parts...)
			ref, count := unionOfReference(parts...)
			if u.Count() != count {
				t.Fatalf("n=%d lanes=%d: UnionOf count %d, reference %d", n, lanes, u.Count(), count)
			}
			for v := 0; v < n; v++ {
				if u.Contains(graph.VertexID(v)) != ref[graph.VertexID(v)] {
					t.Fatalf("n=%d lanes=%d: vertex %d membership diverges from reference", n, lanes, v)
				}
			}
			// The tail bits beyond n must stay zero (no phantom members).
			if tail := n % 64; tail != 0 {
				last := wordsOf(u)[len(wordsOf(u))-1]
				if last>>tail != 0 {
					t.Fatalf("n=%d lanes=%d: union set bits beyond the universe: %064b", n, lanes, last)
				}
			}
			// Sparse materialization agrees with Count after a word-level
			// build.
			if len(u.Sparse()) != count {
				t.Fatalf("n=%d lanes=%d: Sparse has %d members, Count says %d", n, lanes, len(u.Sparse()), count)
			}
		}
	}
}

// Property: UnionOf equals the result of folding UnionWith (the serial
// word-level path already pinned by TestQuickUnionIntersectionLaws), and is
// invariant under lane order.
func TestQuickUnionOfMatchesFold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(1<<10)
		lanes := 1 + rng.Intn(16)
		parts := make([]*Subset, lanes)
		for i := range parts {
			parts[i], _ = genSubset(rng, n, rng.Intn(n+1))
		}
		got := UnionOf(nil, 1+rng.Intn(4), parts...)
		want := New(n)
		for _, p := range parts {
			want.UnionWith(p)
		}
		if got.Count() != want.Count() {
			return false
		}
		for i, w := range wordsOf(got) {
			if w != wordsOf(want)[i] {
				return false
			}
		}
		// Lane order must not matter.
		rev := make([]*Subset, lanes)
		for i := range rev {
			rev[i] = parts[lanes-1-i]
		}
		again := UnionOf(nil, 1, rev...)
		if again.Count() != got.Count() {
			return false
		}
		for i, w := range wordsOf(again) {
			if w != wordsOf(got)[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(5, 150)); err != nil {
		t.Fatal(err)
	}
}

// checkAccumulatorEmpty holds a to its between-merges invariant: no touched
// word, and all-zero over its whole capacity.
func checkAccumulatorEmpty(t *testing.T, a *Accumulator) {
	t.Helper()
	if len(a.touched) != 0 {
		t.Fatalf("accumulator keeps %d touched words after the merge", len(a.touched))
	}
	for i, w := range a.words[:cap(a.words)] {
		if w != 0 {
			t.Fatalf("accumulator word %d = %#x after the merge", i, w)
		}
	}
}

// Property: merging any number of accumulators into a subset is serial Add of
// every vertex they received — around word boundaries (vertices 63/64/65,
// 127/128/129), in words 63/64/65/127/129 and in the tail word, with one
// vertex in two accumulators and a subset that was not empty — in the bitmap,
// Count and Sparse() (taken once before the merge too), and it leaves every
// accumulator empty and reusable.
func TestQuickMergeMatchesSerialAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 130 + rng.Intn(1<<14)
		boundary := []int{0, 63, 64, 65, 127, 128, 129}
		for _, w := range []int{63, 64, 65, 127, 129} {
			if v := w*64 + rng.Intn(64); v < n {
				boundary = append(boundary, v)
			}
		}
		s, _ := genSubset(rng, n, rng.Intn(n/4))
		want := s.Clone()
		s.Sparse() // a member list the merge must not leave behind
		accs := make([]*Accumulator, 1+rng.Intn(4))
		for i := range accs {
			accs[i] = NewAccumulator(n)
		}
		add := func(a *Accumulator, v graph.VertexID) {
			a.Add(v)
			want.Add(v)
		}
		shared := graph.VertexID(rng.Intn(n))
		for _, v := range boundary {
			add(accs[rng.Intn(len(accs))], graph.VertexID(v))
		}
		for i, a := range accs {
			add(a, shared)
			add(a, graph.VertexID(n-1-i%2)) // the tail word
			for k := rng.Intn(n / 8); k > 0; k-- {
				add(a, graph.VertexID(rng.Intn(n)))
			}
		}
		for round := 0; round < 2; round++ { // the second round reuses the emptied accumulators
			s.Merge(accs...)
			sp := s.Sparse()
			if s.Count() != want.Count() || len(sp) != want.Count() {
				t.Logf("n=%d: count %d, sparse %d, want %d", n, s.Count(), len(sp), want.Count())
				return false
			}
			for i, w := range wordsOf(want) {
				if wordsOf(s)[i] != w {
					t.Logf("n=%d: word %d = %#x, want %#x", n, i, wordsOf(s)[i], w)
					return false
				}
			}
			for i, v := range want.Sparse() {
				if sp[i] != v {
					return false
				}
			}
			for _, a := range accs {
				checkAccumulatorEmpty(t, a)
			}
			add(accs[len(accs)-1], graph.VertexID(rng.Intn(n)))
		}
		return true
	}
	if err := quick.Check(f, quickCfg(31, 200)); err != nil {
		t.Fatal(err)
	}
}

// An accumulator resized to a smaller universe and back keeps its capacity
// and its emptiness; one too small for the new universe is replaced.
func TestAccumulatorResized(t *testing.T) {
	a := NewAccumulator(1000)
	a.Add(999)
	FromVertices(1000).Merge(a)
	small := a.Resized(70)
	if small != a || len(small.words) != 2 {
		t.Fatalf("resized to 70 vertices: same %v, %d words", small == a, len(small.words))
	}
	small.Add(69)
	s := New(70)
	s.Merge(small)
	if s.Count() != 1 || !s.Contains(69) {
		t.Fatalf("merge after resize: count %d", s.Count())
	}
	checkAccumulatorEmpty(t, small)
	if back := small.Resized(1000); back != a || len(back.words) != 16 {
		t.Fatal("resizing back within capacity replaced the accumulator")
	}
	if grown := a.Resized(2000); grown == a || len(grown.words) != 32 {
		t.Fatal("resizing past capacity kept the short accumulator")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging an accumulator over another universe did not panic")
		}
	}()
	New(64).Merge(NewAccumulator(1000))
}

// wordsOf loads the bitmap of s word by word.
func wordsOf(s *Subset) []uint64 {
	words := make([]uint64, len(s.Words()))
	for i := range words {
		words[i] = s.Words()[i].Load()
	}
	return words
}
