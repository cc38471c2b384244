package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList exercises the text parser: it must never panic, and any
// input it accepts must produce a structurally valid graph that round-trips
// through the writer.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# c\n0 1 2.5\n")
	f.Add("")
	f.Add("0 0\n")
	f.Add("3 1 -2\n")
	f.Add("x y z\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input), true)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		g2, err := ReadEdgeList(&buf, true)
		if err != nil {
			t.Fatalf("reparse of own output failed: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed |E|: %d -> %d", g.NumEdges(), g2.NumEdges())
		}
	})
}

// FuzzReadBinary exercises the binary decoder with arbitrary bytes: it must
// reject or decode, never panic or accept an invalid graph.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, PaperExample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 32))
	f.Add(hugeHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid graph: %v", err)
		}
	})
}
