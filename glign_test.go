package glign

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	g := PaperExampleGraph()
	rt, err := NewRuntime(g, WithBatchSize(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run([]Query{
		{Kernel: SSSP, Source: 0},
		{Kernel: SSSP, Source: 1},
		{Kernel: BFS, Source: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumQueries() != 3 {
		t.Fatalf("queries = %d", rep.NumQueries())
	}
	// Paper Table 1 values for sssp(v1).
	want := []Value{0, 17, 4, 12, 5, 7, 6, 22, 10}
	got := rep.Values(0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("sssp(v1) = %v, want %v", got, want)
		}
	}
	if rep.Value(2, 7) != 4 {
		t.Fatalf("bfs(v1) level of v8 = %v, want 4", rep.Value(2, 7))
	}
	if rep.Reached(0) != 9 {
		t.Fatalf("reached = %d, want 9", rep.Reached(0))
	}
	// sssp(v2) cannot reach v1.
	if !math.IsInf(rep.Value(1, 0), 1) {
		t.Fatal("unreachable vertex must stay at identity")
	}
	if rep.DurationSeconds() <= 0 || rep.TotalIterations() == 0 || len(rep.Batches()) == 0 {
		t.Fatal("report stats broken")
	}
}

func TestAllMethodsViaFacade(t *testing.T) {
	g, err := Generate("LJ", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	buffer := []Query{
		{Kernel: SSSP, Source: 5},
		{Kernel: SSWP, Source: 9},
		{Kernel: SSNP, Source: 13},
		{Kernel: Viterbi, Source: 2},
	}
	var reference [][]Value
	for _, m := range Methods() {
		rt, err := NewRuntime(g, WithMethod(m), WithBatchSize(4), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if rt.Method() != m {
			t.Fatalf("method = %s", rt.Method())
		}
		rep, err := rt.Run(buffer)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if reference == nil {
			reference = make([][]Value, len(buffer))
			for i := range buffer {
				reference[i] = rep.Values(i)
			}
			continue
		}
		for i := range buffer {
			got := rep.Values(i)
			for v := range got {
				if got[v] != reference[i][v] {
					t.Fatalf("%s disagrees with %s on query %d vertex %d", m, Methods()[0], i, v)
				}
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate("LJ", "galactic"); err == nil {
		t.Fatal("bad size accepted")
	}
	if _, err := Generate("NOPE", "tiny"); err == nil {
		t.Fatal("bad dataset accepted")
	}
	if len(Datasets()) != 7 {
		t.Fatalf("datasets = %v", Datasets())
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	var empty Graph
	if _, err := NewRuntime(&empty); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestKernelByName(t *testing.T) {
	k, err := KernelByName("Viterbi")
	if err != nil || k.Name() != "Viterbi" {
		t.Fatal("KernelByName broken")
	}
	if _, err := KernelByName("pagerank"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestGraphIO(t *testing.T) {
	g := PaperExampleGraph()
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraph(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatal("round trip lost edges")
	}
}

// TestLoadGraphRejectsBadWeights pins the loader side of the weights >= 1
// contract: each of these files used to load and then leave an SSSP Run
// spinning forever (NaN never settles; a negative undirected edge is a
// negative cycle), so LoadGraph must refuse them instead.
func TestLoadGraphRejectsBadWeights(t *testing.T) {
	for name, body := range map[string]string{
		"nan":      "0 1 NaN\n1 2 1\n0 2 5\n",
		"negative": "0 1 -1\n1 2 1\n",
	} {
		path := filepath.Join(t.TempDir(), name+".txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, directed := range []bool{true, false} {
			if _, err := LoadGraph(path, directed); err == nil {
				t.Errorf("%s (directed=%v): LoadGraph accepted %q", name, directed, body)
			}
		}
	}
}

func TestGraphBuilderFacade(t *testing.T) {
	b := NewGraphBuilder(3, true, true)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(g)
	if st.Vertices != 3 || st.Edges != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProfileLazyAndShared(t *testing.T) {
	g, _ := Generate("TW", "tiny")
	rt, err := NewRuntime(g, WithHubCount(2), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	p1 := rt.Profile()
	p2 := rt.Profile()
	if p1 != p2 {
		t.Fatal("profile rebuilt")
	}
	if len(p1.Hubs) != 2 {
		t.Fatalf("hubs = %d, want 2 (WithHubCount)", len(p1.Hubs))
	}
}

func TestReportVerify(t *testing.T) {
	g, _ := Generate("LJ", "tiny")
	rt, err := NewRuntime(g, WithBatchSize(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	buffer := []Query{
		{Kernel: SSSP, Source: 3},
		{Kernel: Viterbi, Source: 9},
		{Kernel: SSNP, Source: 21},
	}
	rep, err := rt.Run(buffer)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(0); err != nil {
		t.Fatalf("full verify failed: %v", err)
	}
	if err := rep.Verify(2); err != nil {
		t.Fatalf("sampled verify failed: %v", err)
	}
}

// The public affinity API must reproduce the paper's §3.3 arithmetic.
func TestPublicAffinityPaperNumbers(t *testing.T) {
	g := PaperExampleGraph()
	batch := []Query{
		{Kernel: SSSP, Source: 1},
		{Kernel: SSSP, Source: 7},
	}
	if got := Affinity(g, batch, nil); math.Abs(got-1.0/9) > 1e-12 {
		t.Fatalf("Affinity(I=nil) = %v, want 1/9", got)
	}
	if got := Affinity(g, batch, []int{2, 0}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Affinity(I=[2,0]) = %v, want 1/3", got)
	}
	rt, _ := NewRuntime(g)
	I := rt.AlignmentVector(batch)
	if len(I) != 2 || I[1] != 0 {
		t.Fatalf("alignment vector = %v", I)
	}
}

func TestLatencyAccounting(t *testing.T) {
	g, _ := Generate("LJ", "tiny")
	rt, err := NewRuntime(g, WithBatchSize(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	buffer := make([]Query, 12)
	for i := range buffer {
		buffer[i] = Query{Kernel: SSSP, Source: VertexID(i * 7 % g.NumVertices())}
	}
	rep, err := rt.Run(buffer)
	if err != nil {
		t.Fatal(err)
	}
	// Latency is positive and nondecreasing across batch order.
	batches := rep.Batches()
	var prev float64
	for _, batch := range batches {
		l := rep.LatencySeconds(batch[0])
		if l <= 0 {
			t.Fatalf("latency = %v", l)
		}
		if l < prev {
			t.Fatalf("latency decreased across batches: %v < %v", l, prev)
		}
		prev = l
		// All queries of a batch complete together.
		for _, qi := range batch {
			if rep.LatencySeconds(qi) != l {
				t.Fatal("queries of one batch must share completion latency")
			}
		}
	}
}

func TestBatchingWindowOption(t *testing.T) {
	g, _ := Generate("LJ", "tiny")
	rt, err := NewRuntime(g, WithMethod(MethodGlignBatch), WithBatchSize(4),
		WithBatchingWindow(8), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	buffer := make([]Query, 16)
	for i := range buffer {
		buffer[i] = Query{Kernel: BFS, Source: VertexID(i * 13 % g.NumVertices())}
	}
	rep, err := rt.Run(buffer)
	if err != nil {
		t.Fatal(err)
	}
	// Window 8, batch 4: query indices may move at most within their window.
	for _, batch := range rep.Batches() {
		for _, idx := range batch {
			_ = idx
		}
	}
	if len(rep.Batches()) != 4 {
		t.Fatalf("batches = %d, want 4", len(rep.Batches()))
	}
}
