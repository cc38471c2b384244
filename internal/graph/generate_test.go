package graph

import (
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(LJ, Tiny)
	b := MustGenerate(LJ, Tiny)
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("non-deterministic sizes: %v vs %v", a, b)
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] || a.Weights[i] != b.Weights[i] {
			t.Fatalf("non-deterministic edge %d", i)
		}
	}
}

func TestGenerateAllDatasetsTiny(t *testing.T) {
	for _, d := range AllDatasets() {
		g, err := Generate(d, Tiny)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid: %v", d, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", d)
		}
		if !g.Weighted() {
			t.Fatalf("%s: generators must attach weights", d)
		}
	}
}

func TestGenerateUnknownDataset(t *testing.T) {
	if _, err := Generate(Dataset("NOPE"), Tiny); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := Generate(LJ, SizeClass(99)); err == nil {
		t.Fatal("unknown size class accepted")
	}
}

// The road networks must sit in a different structural regime than the
// power-law graphs: far smaller average degree and far larger diameter.
// This is the property paper §4.7 depends on.
func TestRoadVsPowerLawRegimes(t *testing.T) {
	lj := ComputeStats(MustGenerate(LJ, Tiny))
	rd := ComputeStats(MustGenerate(RDCA, Tiny))
	if rd.AvgDegree >= lj.AvgDegree {
		t.Fatalf("road avg degree %.2f >= power-law %.2f", rd.AvgDegree, lj.AvgDegree)
	}
	if rd.ApproxDia <= 2*lj.ApproxDia {
		t.Fatalf("road diameter %d not ≫ power-law diameter %d", rd.ApproxDia, lj.ApproxDia)
	}
	if rd.MaxDegree > 12 {
		t.Fatalf("road max degree %d suspiciously high", rd.MaxDegree)
	}
}

// The power-law generators must produce heavy-tailed degree distributions:
// a hub vertex whose degree vastly exceeds the average. Glign's
// heavy-iteration heuristic (paper §3.3) keys off exactly this skew.
func TestPowerLawSkew(t *testing.T) {
	for _, d := range PowerLawDatasets() {
		s := ComputeStats(MustGenerate(d, Tiny))
		if float64(s.MaxDegree) < 8*s.AvgDegree {
			t.Fatalf("%s: max degree %d not ≫ avg %.2f — not power-law", d, s.MaxDegree, s.AvgDegree)
		}
	}
}

// weaklyReached counts the vertices an undirected BFS from vertex 0 reaches.
func weaklyReached(g *Graph) int {
	rev := g.Reverse()
	seen := make([]bool, g.NumVertices())
	seen[0] = true
	queue := []VertexID{0}
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, set := range [][]VertexID{g.OutNeighbors(v), rev.OutNeighbors(v)} {
			for _, u := range set {
				if !seen[u] {
					seen[u] = true
					count++
					queue = append(queue, u)
				}
			}
		}
	}
	return count
}

func TestRoadConnected(t *testing.T) {
	g := MustGenerate(RDCA, Tiny)
	// BFS from vertex 0 must reach everything (spanning backbone guarantee).
	if count, n := weaklyReached(g), g.NumVertices(); count != n {
		t.Fatalf("road network disconnected: reached %d of %d", count, n)
	}
}

// Every road dataset is one weak component (spanning backbone guarantee).
func TestRoadNetworksAreConnected(t *testing.T) {
	for _, d := range RoadDatasets() {
		g := MustGenerate(d, Tiny)
		if count, n := weaklyReached(g), g.NumVertices(); count != n {
			t.Fatalf("%s: road network disconnected: reached %d of %d", d, count, n)
		}
	}
}

func TestSizeClassOrdering(t *testing.T) {
	tiny := MustGenerate(LJ, Tiny)
	small := MustGenerate(LJ, Small)
	if small.NumVertices() <= tiny.NumVertices() {
		t.Fatalf("Small (%d) not larger than Tiny (%d)", small.NumVertices(), tiny.NumVertices())
	}
}

func TestSizeClassString(t *testing.T) {
	if Tiny.String() != "tiny" || Small.String() != "small" || Medium.String() != "medium" {
		t.Fatal("SizeClass.String broken")
	}
	if SizeClass(42).String() == "" {
		t.Fatal("unknown size class should still format")
	}
}

func TestComputeStatsPaperExample(t *testing.T) {
	s := ComputeStats(PaperExample())
	if s.Vertices != 9 || s.Edges != 14 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDegree != 4 {
		t.Fatalf("max degree = %d, want 4 (v3)", s.MaxDegree)
	}
	if s.ApproxDia < 2 {
		t.Fatalf("approx diameter = %d, want >= 2", s.ApproxDia)
	}
}
