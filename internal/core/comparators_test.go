package core

// The comparator engines that are not unified-frontier designs: GraphM's
// partition-centric policy on drive, Congra's concurrent one-query batches
// and Query-Parallel's serial evaluations.

import (
	"math/rand"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/queries"
)

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
		checkAgainstReference(t, g, mixedBatch(g, 10, 31), GraphM, Options{Workers: 4})
	}
}

func TestGraphMSmallPartitions(t *testing.T) {
	// Force many tiny partitions to exercise the partition-streaming path.
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	checkAgainstReference(t, g, mixedBatch(g, 6, 32), graphM{partitionBytes: 1024}, Options{Workers: 4})
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
	checkAgainstReference(t, g, batch, GraphM, Options{Alignment: []int{2, 0}, Workers: 1})
	// Lane 0 arrives long after lane 1 reached its fixed point (idle
	// iterations in between); both lanes share lane 1's source.
	batch[0].Source = 7
	checkAgainstReference(t, g, batch, GraphM, Options{Alignment: []int{30, 0}, Workers: 2})
}

func TestQueryParallelMatchesReference(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	checkAgainstReference(t, g, mixedBatch(g, 12, 33), QueryParallel, Options{Workers: 4})
}

func TestCongraMatchesReference(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	checkAgainstReference(t, g, mixedBatch(g, 10, 37), Congra, Options{Workers: 2})
	// Congra's evaluation with fewer goroutines than queries must also be
	// correct.
	batch := mixedBatch(g, 6, 38)
	res, err := runApart(g, batch, Options{Workers: 2}, 2)
	checkReferenceValues(t, "runApart/2", g, batch, res, err)
	// The concurrent one-query batches share one pool and, batch after batch,
	// one arena.
	arena := new(Arena)
	for seed := int64(39); seed < 42; seed++ {
		batch := mixedBatch(g, 8, seed)
		res, err := runApart(g, batch, Options{Workers: 2, Arena: arena}, 3)
		checkReferenceValues(t, "runApart/3", g, batch, res, err)
		res.Release()
	}
}

func TestGraphMTracing(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	batch := mixedBatch(g, 6, 36)
	var ct memtrace.CountingTracer
	res, err := GraphM.Run(g, batch, Options{Tracer: &ct})
	if err != nil {
		t.Fatal(err)
	}
	if ct.Reads == 0 || ct.Writes == 0 {
		t.Fatalf("GraphM tracer saw reads=%d writes=%d", ct.Reads, ct.Writes)
	}
	// Tracing must not perturb results.
	plain, err := GraphM.Run(g, batch, Options{})
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
	res, err := GraphM.Run(g, batch, Options{Workers: 1})
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
