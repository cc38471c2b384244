package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: %v vs %v", a, b)
	}
	if a.Directed != b.Directed || a.Weighted() != b.Weighted() {
		t.Fatalf("flags mismatch: %v vs %v", a, b)
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			t.Fatalf("offsets differ at %d", i)
		}
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("targets differ at %d", i)
		}
		if a.Weighted() && a.Weights[i] != b.Weights[i] {
			t.Fatalf("weights differ at %d", i)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*Graph{PaperExample(), MustGenerate(UK2, Tiny), MustGenerate(RDCA, Tiny)} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", g.Name, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", g.Name, err)
		}
		if got.Name != g.Name {
			t.Fatalf("name %q != %q", got.Name, g.Name)
		}
		graphsEqual(t, g, got)
	}
}

func TestTextRoundTrip(t *testing.T) {
	for _, g := range []*Graph{PaperExample(), MustGenerate(LJ, Tiny)} {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdgeList(&buf, g.Directed)
		if err != nil {
			t.Fatal(err)
		}
		// Text round trip may renumber nothing but loses the name; compare CSR.
		graphsEqual(t, g, got)
	}
}

func TestTextRoundTripUndirected(t *testing.T) {
	g := MustGenerate(RDCA, Tiny)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)
}

func TestReadEdgeListParsing(t *testing.T) {
	in := "# comment\n% other comment\n0 1 2.5\n1 2\n\n2 0 4\n"
	g, err := ReadEdgeList(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
	if !g.Weighted() {
		t.Fatal("weight column present but graph unweighted")
	}
	// Missing weight defaults to 1.
	_, ws := g.OutEdges(1)
	if ws[0] != 1 {
		t.Fatalf("default weight = %v, want 1", ws[0])
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",                      // too few fields
		"x 1\n",                    // bad src
		"0 y\n",                    // bad dst
		"0 1 zoo\n",                // bad weight
		"0 99999999999999999999\n", // overflow
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), true); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

// TestLoadersEnforceWeightContract feeds one edge of each weight through
// both loaders: every query kernel relies on weights >= 1, so anything else
// (NaN included) is rejected with its line or edge index, and an explicit 0
// is no longer rewritten to 1.
func TestLoadersEnforceWeightContract(t *testing.T) {
	for _, tc := range []struct {
		w  string
		ok bool
	}{
		{"NaN", false}, {"-1", false}, {"-Inf", false}, {"0", false}, {"0.5", false},
		{"1", true}, {"2.5", true}, {"+Inf", true},
	} {
		_, err := ReadEdgeList(strings.NewReader("# header\n0 1 "+tc.w+"\n"), true)
		if tc.ok != (err == nil) {
			t.Errorf("ReadEdgeList weight %s: err = %v, want ok=%v", tc.w, err, tc.ok)
		} else if err != nil && !strings.Contains(err.Error(), "line 2") {
			t.Errorf("ReadEdgeList weight %s: error %q does not name line 2", tc.w, err)
		}

		f, err := strconv.ParseFloat(tc.w, 32)
		if err != nil {
			t.Fatal(err)
		}
		g := &Graph{Offsets: []uint32{0, 1, 1}, Targets: []VertexID{1}, Weights: []Weight{Weight(f)}, Directed: true}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		_, err = ReadBinary(&buf)
		if tc.ok != (err == nil) {
			t.Errorf("ReadBinary weight %s: err = %v, want ok=%v", tc.w, err, tc.ok)
		} else if err != nil && !strings.Contains(err.Error(), "edge 0") {
			t.Errorf("ReadBinary weight %s: error %q does not name edge 0", tc.w, err)
		}
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// hugeHeader is a binary header that claims 1<<26 vertices and edges of a
// weighted graph and carries nothing after it.
func hugeHeader() []byte {
	b := make([]byte, 20)
	for i, x := range []uint32{binaryMagic, 2, 1 << 26, 1 << 26, 0} {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
	return b
}

// TestReadBinaryDistrustsHeader holds ReadBinary to allocating with its
// input, not its header: a header claiming 1<<26 vertices (256 MB of
// offsets) with no payload is rejected as a short file with less than 1 MB
// allocated, and so is a name length of 1<<32-1 with no name.
func TestReadBinaryDistrustsHeader(t *testing.T) {
	longName := hugeHeader()[:16]
	longName = binary.LittleEndian.AppendUint32(longName, 1<<32-1)
	for name, data := range map[string][]byte{"vertices": hugeHeader(), "name": longName} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: ReadBinary allocated %d bytes for a %d-byte input", name, grew, len(data))
		}
	}
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	g := PaperExample()

	binPath := filepath.Join(dir, "g.bin")
	if err := SaveFile(binPath, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(binPath, true)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)

	txtPath := filepath.Join(dir, "g.txt")
	if err := SaveFile(txtPath, g); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(txtPath, true)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)

	if _, err := LoadFile(filepath.Join(dir, "missing.bin"), true); err == nil {
		t.Fatal("missing file accepted")
	}
}
