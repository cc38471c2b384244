package frontier

import "github.com/glign/glign/internal/graph"

// Accumulator is one writer's private share of a subset built in parallel: a
// word bitmap over the subset's universe and the list of words it touched,
// filled with plain stores, so concurrent writers share no cache line until
// Subset.Merge ORs their shares in after they have joined. Between merges it
// is all-zero over its whole capacity, which is what lets an owner keep it
// from one subset to the next with no clearing pass.
type Accumulator struct {
	words   []uint64 // zero outside touched
	touched []uint32 // the words that went non-zero, each once
	// Pads the struct to a cache line of its own: writers' accumulators are
	// made one after another, and Add writes touched's length.
	_ [16]byte
}

// NewAccumulator returns an empty accumulator over n vertices.
func NewAccumulator(n int) *Accumulator {
	nw := (n + 63) / 64
	// Each word enters touched at most once between merges, so Add never
	// grows it.
	return &Accumulator{words: make([]uint64, nw), touched: make([]uint32, 0, nw)}
}

// Resized returns an empty accumulator over n vertices: a itself, resliced,
// when its capacity is enough (it keeps the capacity for a later, larger
// universe), and a new one otherwise; a may be nil.
func (a *Accumulator) Resized(n int) *Accumulator {
	nw := (n + 63) / 64
	if a == nil || cap(a.words) < nw {
		return NewAccumulator(n)
	}
	a.words, a.touched = a.words[:nw], a.touched[:0]
	return a
}

// Add inserts v. An accumulator has one writer at a time.
func (a *Accumulator) Add(v graph.VertexID) {
	w := v >> 6
	if a.words[w] == 0 {
		a.touched = append(a.touched, w)
	}
	a.words[w] |= 1 << (v & 63)
}

// Merge ORs the members of accs into s, word by word over the words each
// touched, and leaves every accumulator empty and ready for its writer again.
// The accumulators' writers must have joined, and no Add on s may be in
// flight.
func (s *Subset) Merge(accs ...*Accumulator) {
	for _, a := range accs {
		if len(a.words) != len(s.words) {
			panic("frontier: Merge of an accumulator over another universe")
		}
		for _, w := range a.touched {
			s.words[w].Store(s.words[w].Load() | a.words[w])
			a.words[w] = 0
		}
		a.touched = a.touched[:0]
	}
}
