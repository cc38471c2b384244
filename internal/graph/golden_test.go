package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// csrHash is the FNV-1a hash of g's CSR arrays (Offsets, Targets, Weights,
// each little-endian) and its direction: two graphs with equal hashes are,
// to every reader of the CSR, the same graph.
func csrHash(g *Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	word := func(x uint32) {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
	if g.Directed {
		word(1)
	} else {
		word(0)
	}
	word(uint32(len(g.Offsets)))
	for _, o := range g.Offsets {
		word(o)
	}
	word(uint32(len(g.Targets)))
	for _, t := range g.Targets {
		word(uint32(t))
	}
	word(uint32(len(g.Weights)))
	for _, w := range g.Weights {
		word(math.Float32bits(float32(w)))
	}
	return h.Sum64()
}

// TestGeneratedGraphsAreUnchanged pins every dataset's generated CSR at Tiny
// and Small, and the two benchmark graphs at Medium, to hashes recorded from
// the comparison-sort build and serial R-MAT draw: a faster generator must
// produce the same bytes, so every figure measured on a generated graph
// stays comparable across changes to the generator.
func TestGeneratedGraphsAreUnchanged(t *testing.T) {
	want := []struct {
		d    Dataset
		size SizeClass
		hash uint64
	}{
		{LJ, Tiny, 0x926d340ca1082c10},
		{WP, Tiny, 0xa07ca16e4fa5eea3},
		{UK2, Tiny, 0xa6d58e76de825d8a},
		{TW, Tiny, 0x89ce20b7844e709f},
		{FR, Tiny, 0x1548eca9a804a3cc},
		{RDCA, Tiny, 0xcd008ead8960ddf7},
		{RDUS, Tiny, 0x7f68ade34d20e384},
		{LJ, Small, 0xe8fe02b433817237},
		{WP, Small, 0x53a61ebef1f603b},
		{UK2, Small, 0xb078ca8e40f1a6b4},
		{TW, Small, 0x81ec95822bc8997d},
		{FR, Small, 0xce9560260688b1},
		{RDCA, Small, 0x221aa0fdd107a350},
		{RDUS, Small, 0x2f7507c98007c442},
		{LJ, Medium, 0x253424410a434e89},
		{RDCA, Medium, 0x82cbfff0406097a8},
	}
	for _, c := range want {
		if c.size != Tiny && testing.Short() {
			continue // verify.sh's race leg runs -short: the larger graphs take it ~30 s
		}
		if got := csrHash(MustGenerate(c.d, c.size)); got != c.hash {
			t.Errorf("%s/%s: CSR hash %#x, want %#x", c.d, c.size, got, c.hash)
		}
	}
}
