package systems

import (
	"math/rand"
	"testing"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

func buffer(g *graph.Graph, n int, seed int64) []queries.Query {
	rng := rand.New(rand.NewSource(seed))
	kernels := queries.All()
	buf := make([]queries.Query, n)
	for i := range buf {
		buf[i] = queries.Query{
			Kernel: kernels[rng.Intn(len(kernels))],
			Source: graph.VertexID(rng.Intn(g.NumVertices())),
		}
	}
	return buf
}

// Every method must produce exactly the per-query reference results,
// regardless of batching, alignment, or engine.
func TestAllMethodsCorrect(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	buf := buffer(g, 40, 41)
	want := make([][]queries.Value, len(buf))
	for i, q := range buf {
		want[i] = oracle.ReferenceRun(g, q)
	}
	methods := append(AllMethods(), IBFS, QueryParallel)
	for _, m := range methods {
		res, err := Run(m, g, buf, Config{BatchSize: 8, Workers: 4, KeepValues: true})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for i := range buf {
			got := res.Values[i]
			if got == nil {
				t.Fatalf("%s: query %d missing from results", m, i)
			}
			for v := range want[i] {
				if got[v] != want[i][v] {
					t.Fatalf("%s: query %d (%s) v%d = %v, want %v",
						m, i, buf[i], v, got[v], want[i][v])
				}
			}
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	g := graph.PaperExample()
	if _, err := Run("Nope", g, buffer(g, 2, 1), Config{}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestEmptyBuffer(t *testing.T) {
	g := graph.PaperExample()
	if _, err := Run(GlignIntra, g, nil, Config{}); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

func TestGlignInterRecordsAlignments(t *testing.T) {
	g := graph.MustGenerate(graph.TW, graph.Tiny)
	buf := buffer(g, 16, 42)
	res, err := Run(GlignInter, g, buf, Config{BatchSize: 8, Workers: 2, Telemetry: telemetry.NewCollector()})
	if err != nil {
		t.Fatal(err)
	}
	batches := res.Telemetry.Snapshot().Batches
	if len(batches) != len(res.Batches) {
		t.Fatal("alignment bookkeeping broken")
	}
	for bi, b := range batches {
		I := b.Alignment
		if I == nil {
			t.Fatalf("batch %d: Glign-Inter must record an alignment vector", bi)
		}
		minV := I[0]
		for _, x := range I {
			if x < 0 {
				t.Fatalf("negative alignment %v", I)
			}
			if x < minV {
				minV = x
			}
		}
		if minV != 0 {
			t.Fatalf("alignment %v not normalized", I)
		}
	}
	// Intra must not align.
	res, err = Run(GlignIntra, g, buf, Config{BatchSize: 8, Workers: 2, Telemetry: telemetry.NewCollector()})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Telemetry.Snapshot().Batches {
		if b.Alignment != nil {
			t.Fatal("Glign-Intra must not use alignment vectors")
		}
	}
}

func TestProfileReuse(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	prof := align.NewProfile(g, 4, 2)
	buf := buffer(g, 8, 43)
	// Passing a prebuilt profile must work and not rebuild it (cannot
	// observe directly; at least exercise the path).
	if _, err := Run(Glign, g, buf, Config{BatchSize: 4, Profile: prof, Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestNeedsProfile(t *testing.T) {
	for _, m := range []string{GlignInter, GlignBatch, Glign} {
		if !NeedsProfile(m) {
			t.Fatalf("%s should need a profile", m)
		}
	}
	for _, m := range []string{LigraS, LigraC, Krill, GraphM, GlignIntra, IBFS} {
		if NeedsProfile(m) {
			t.Fatalf("%s should not need a profile", m)
		}
	}
}

func TestTracerThreadedThrough(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	buf := buffer(g, 8, 44)
	var ct memtrace.CountingTracer
	if _, err := Run(GlignIntra, g, buf, Config{BatchSize: 4, Tracer: &ct}); err != nil {
		t.Fatal(err)
	}
	if ct.Reads == 0 {
		t.Fatal("tracer unused")
	}
}

func TestStatsAggregation(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	buf := buffer(g, 12, 45)
	res, err := Run(GlignIntra, g, buf, Config{BatchSize: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(res.Batches))
	}
	if res.TotalIterations == 0 || res.EdgesProcessed == 0 || res.Duration <= 0 {
		t.Fatalf("stats not aggregated: %+v", res)
	}
	// Oblivious evaluation relaxes at least one lane per edge visit.
	if res.LaneRelaxations < res.EdgesProcessed {
		t.Fatalf("lane relaxations %d < edges %d", res.LaneRelaxations, res.EdgesProcessed)
	}
}
