package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Text format: one edge per line, "src dst [weight]", '#'-prefixed comment
// lines ignored — the SNAP edge-list convention used by the paper's
// datasets. Binary format: a compact CSR dump for fast reload.

// ReadEdgeList parses a SNAP-style edge list. n is inferred as max id + 1.
// If any line carries a third column the graph is weighted (missing weights
// default to 1); a weight that is not >= 1 (NaN included) is an error, as
// every query kernel relies on it (see Weight).
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	weighted := false
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst [w]', got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %v", lineNo, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %v", lineNo, err)
		}
		w := Weight(1)
		if len(fields) >= 3 {
			f, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", lineNo, err)
			}
			w = Weight(f)
			if !(w >= 1) {
				return nil, fmt.Errorf("graph: line %d: weight %v, want >= 1", lineNo, w)
			}
			weighted = true
		}
		if int(u) > maxID {
			maxID = int(u)
		}
		if int(v) > maxID {
			maxID = int(v)
		}
		edges = append(edges, Edge{Src: VertexID(u), Dst: VertexID(v), W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromEdges(maxID+1, directed, weighted, edges)
}

// WriteEdgeList writes g in the text edge-list format (weights included when
// present). For undirected graphs every arc is written once (u < v).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", g.String())
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		nbrs, ws := g.OutEdges(VertexID(v))
		for i, u := range nbrs {
			if !g.Directed && u < VertexID(v) {
				continue
			}
			if ws != nil {
				fmt.Fprintf(bw, "%d %d %g\n", v, u, ws[i])
			} else {
				fmt.Fprintf(bw, "%d %d\n", v, u)
			}
		}
	}
	return bw.Flush()
}

const binaryMagic = uint32(0x474c4e31) // "GLN1"

// WriteBinary writes the CSR arrays in a compact little-endian binary form.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var flags uint32
	if g.Directed {
		flags |= 1
	}
	if g.Weighted() {
		flags |= 2
	}
	hdr := []uint32{binaryMagic, flags, uint32(g.NumVertices()), uint32(g.NumEdges())}
	for _, x := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	name := []byte(g.Name)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Targets); err != nil {
		return err
	}
	if g.Weighted() {
		if err := binary.Write(bw, binary.LittleEndian, g.Weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads a graph written by WriteBinary, rejecting weights that
// are not >= 1 like ReadEdgeList.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", hdr[0])
	}
	flags, n, m := hdr[1], int(hdr[2]), int(hdr[3])
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	g := &Graph{
		Offsets:  make([]uint32, n+1),
		Targets:  make([]VertexID, m),
		Directed: flags&1 != 0,
		Name:     string(name),
	}
	if err := binary.Read(br, binary.LittleEndian, g.Offsets); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, g.Targets); err != nil {
		return nil, err
	}
	if flags&2 != 0 {
		g.Weights = make([]Weight, m)
		if err := binary.Read(br, binary.LittleEndian, g.Weights); err != nil {
			return nil, err
		}
		for i, w := range g.Weights {
			if !(w >= 1) {
				return nil, fmt.Errorf("graph: edge %d: weight %v, want >= 1", i, w)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// LoadFile loads a graph from path, dispatching on extension: ".bin" uses
// the binary CSR format, anything else is parsed as a text edge list.
func LoadFile(path string, directed bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return ReadBinary(f)
	}
	return ReadEdgeList(f, directed)
}

// SaveFile writes a graph to path, dispatching on extension like LoadFile.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return WriteBinary(f, g)
	}
	return WriteEdgeList(f, g)
}
