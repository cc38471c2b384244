package baselines

import (
	"math/rand"
	"testing"

	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/queries"
)

func checkAgainstReference(t *testing.T, e core.Engine, g *graph.Graph, batch []queries.Query, opt core.Options) {
	t.Helper()
	res, err := e.Run(g, batch, opt)
	checkResult(t, e.Name(), g, batch, res, err)
}

// checkResult holds every lane of res to the serial oracle and releases it.
func checkResult(t *testing.T, name string, g *graph.Graph, batch []queries.Query, res *core.BatchResult, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for qi, q := range batch {
		want := engine.ReferenceRun(g, q)
		for v := 0; v < g.NumVertices(); v++ {
			if got := res.Value(qi, graph.VertexID(v)); got != want[v] {
				t.Fatalf("%s: query %d (%s) v%d = %v, want %v", name, qi, q, v, got, want[v])
			}
		}
	}
	res.Release()
}

func mixedBatch(g *graph.Graph, n int, seed int64) []queries.Query {
	rng := rand.New(rand.NewSource(seed))
	kernels := queries.All()
	batch := make([]queries.Query, n)
	for i := range batch {
		batch[i] = queries.Query{
			Kernel: kernels[rng.Intn(len(kernels))],
			Source: graph.VertexID(rng.Intn(g.NumVertices())),
		}
	}
	return batch
}

func TestGraphMMatchesReference(t *testing.T) {
	for _, g := range []*graph.Graph{graph.PaperExample(), graph.MustGenerate(graph.TW, graph.Tiny)} {
		checkAgainstReference(t, GraphM{}, g, mixedBatch(g, 10, 31), core.Options{Workers: 4})
	}
}

func TestGraphMSmallPartitions(t *testing.T) {
	// Force many tiny partitions to exercise the partition-streaming path.
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	e := GraphM{PartitionBytes: 1024}
	checkAgainstReference(t, e, g, mixedBatch(g, 6, 32), core.Options{Workers: 4})
	if parts := partitionRanges(g, 1024); len(parts) < 8 {
		t.Fatalf("expected many partitions, got %d", len(parts))
	}
}

func TestPartitionRangesCoverVertexSpace(t *testing.T) {
	g := graph.MustGenerate(graph.UK2, graph.Tiny)
	for _, target := range []int64{0, 512, 1 << 20} {
		parts := partitionRanges(g, target)
		pos := 0
		for _, p := range parts {
			if p[0] != pos || p[1] <= p[0] {
				t.Fatalf("partition %v not contiguous at %d", p, pos)
			}
			pos = p[1]
		}
		if pos != g.NumVertices() {
			t.Fatalf("partitions end at %d, want %d", pos, g.NumVertices())
		}
	}
}

func TestGraphMHonorsAlignment(t *testing.T) {
	g := graph.PaperExample()
	batch := []queries.Query{
		{Kernel: queries.SSSP, Source: 1},
		{Kernel: queries.SSSP, Source: 7},
	}
	checkAgainstReference(t, GraphM{}, g, batch, core.Options{Alignment: []int{2, 0}, Workers: 1})
	// Lane 0 arrives long after lane 1 reached its fixed point (idle
	// iterations in between); both lanes share lane 1's source.
	batch[0].Source = 7
	checkAgainstReference(t, GraphM{}, g, batch, core.Options{Alignment: []int{30, 0}, Workers: 2})
}

func TestQueryParallelMatchesReference(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	checkAgainstReference(t, QueryParallel{}, g, mixedBatch(g, 12, 33), core.Options{Workers: 4})
}

func TestIBFSGroupsShareHeavyNeighbor(t *testing.T) {
	g := graph.MustGenerate(graph.TW, graph.Tiny)
	rng := rand.New(rand.NewSource(34))
	buf := make([]queries.Query, 80)
	for i := range buf {
		buf[i] = queries.Query{Kernel: queries.BFS,
			Source: graph.VertexID(rng.Intn(g.NumVertices()))}
	}
	h := IBFS{Graph: g}
	batches := h.MakeBatches(buf, 8)
	// Partition check.
	seen := make([]bool, len(buf))
	total := 0
	for _, b := range batches {
		if len(b) == 0 || len(b) > 8 {
			t.Fatalf("batch size %d", len(b))
		}
		for _, i := range b {
			if seen[i] {
				t.Fatalf("query %d scheduled twice", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != len(buf) {
		t.Fatalf("scheduled %d of %d", total, len(buf))
	}
}

func TestIBFSParameterDefaults(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	buf := []queries.Query{{Kernel: queries.BFS, Source: 0}}
	// The parameters derived from the graph must schedule everything.
	batches := IBFS{Graph: g}.MakeBatches(buf, 4)
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("batches = %v", batches)
	}
}

func TestCongraMatchesReference(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	checkAgainstReference(t, Congra{}, g, mixedBatch(g, 10, 37), core.Options{Workers: 2})
	// Congra's evaluation with fewer goroutines than queries must also be
	// correct.
	batch := mixedBatch(g, 6, 38)
	res, err := core.RunApart(g, batch, core.Options{Workers: 2}, 2)
	checkResult(t, "RunApart/2", g, batch, res, err)
	// The concurrent one-query batches share one pool and, batch after batch,
	// one arena.
	arena := new(core.Arena)
	for seed := int64(39); seed < 42; seed++ {
		batch := mixedBatch(g, 8, seed)
		res, err := core.RunApart(g, batch, core.Options{Workers: 2, Arena: arena}, 3)
		checkResult(t, "RunApart/3", g, batch, res, err)
	}
}

func TestGraphMTracing(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	batch := mixedBatch(g, 6, 36)
	var ct memtrace.CountingTracer
	res, err := GraphM{}.Run(g, batch, core.Options{Tracer: &ct})
	if err != nil {
		t.Fatal(err)
	}
	if ct.Reads == 0 || ct.Writes == 0 {
		t.Fatalf("GraphM tracer saw reads=%d writes=%d", ct.Reads, ct.Writes)
	}
	// Tracing must not perturb results.
	plain, err := GraphM{}.Run(g, batch, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range batch {
		for v := 0; v < g.NumVertices(); v++ {
			if res.Value(qi, graph.VertexID(v)) != plain.Value(qi, graph.VertexID(v)) {
				t.Fatal("tracing changed GraphM results")
			}
		}
	}
}

func TestGraphMPartitionCentricCounters(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	batch := mixedBatch(g, 8, 35)
	res, err := GraphM{}.Run(g, batch, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesProcessed == 0 || res.GlobalIterations == 0 {
		t.Fatalf("counters empty: %+v", res)
	}
	// GraphM does per-job edge passes: lane relaxations == edges processed.
	if res.LaneRelaxations != res.EdgesProcessed {
		t.Fatalf("lane relaxations %d != edges %d", res.LaneRelaxations, res.EdgesProcessed)
	}
}
