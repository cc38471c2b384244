package systems_test

import (
	"testing"

	"github.com/glign/glign"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/systems"
	"github.com/glign/glign/internal/telemetry"
)

// seededLabel is min-label propagation in which the source starts at label
// -1: a convergence kernel whose result depends on the source. It does not
// declare itself source-free, so its queries on two sources must run as two
// lanes.
type seededLabel struct{ queries.ConvergenceKernel }

func (seededLabel) Name() string { return "SeededLabel" }

func (seededLabel) InitialValue(_ int, v, src graph.VertexID) queries.Value {
	if v == src {
		return -1
	}
	return queries.Value(v)
}

// equivalentBuffer holds 16 PageRank queries on distinct sources, BFS(v3)
// twice, four other kernels on v3, and the source-reading kernel on two
// sources: seven distinct computations in 23 queries.
func equivalentBuffer() []queries.Query {
	var buf []queries.Query
	for i := 0; i < 16; i++ {
		buf = append(buf, queries.Query{Kernel: queries.PageRank, Source: graph.VertexID(5 + 7*i)})
	}
	seeded := seededLabel{queries.LabelProp}
	return append(buf,
		queries.Query{Kernel: queries.BFS, Source: 3},
		queries.Query{Kernel: queries.SSSP, Source: 3},
		queries.Query{Kernel: seeded, Source: 3},
		queries.Query{Kernel: queries.BFS, Source: 3},
		queries.Query{Kernel: queries.KHop(3), Source: 3},
		queries.Query{Kernel: seeded, Source: 11},
		queries.Query{Kernel: queries.KHop(4), Source: 3},
	)
}

// TestEquivalentQueriesShareOneLane holds systems.Run's one-lane-per-key
// contract under every method that runs convergence kernels: each
// computation key runs exactly one lane (the trace's per-batch queries are
// lanes only), different kernels on one source and a kernel that reads its
// source are never merged, every buffer index is listed in exactly one
// batch, and a coalesced query completes with its canonical's batch holding
// a bit-identical vector of its own.
func TestEquivalentQueriesShareOneLane(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	buf := equivalentBuffer()
	const distinctKeys = 7
	want := make([][]queries.Value, len(buf))
	for i, q := range buf {
		want[i] = oracle.GoldenValues(g, q)
	}
	// Every method whose engine evaluates convergence kernels.
	methods := []string{
		systems.LigraS, systems.LigraC, systems.Krill, systems.GlignIntra, systems.GlignInter,
		systems.GlignBatch, systems.Glign, systems.IBFS, systems.QueryParallel,
	}
	for _, m := range methods {
		t.Run(m, func(t *testing.T) {
			col := telemetry.NewCollector()
			res, err := systems.Run(m, g, buf, systems.Config{BatchSize: 4, Workers: 2, KeepValues: true, Telemetry: col})
			if err != nil {
				t.Fatal(err)
			}
			run := res.Telemetry.Snapshot()
			if len(run.Batches) != len(res.Batches) {
				t.Fatalf("traced batches = %d, result batches = %d", len(run.Batches), len(res.Batches))
			}
			lanes := map[queries.Key]int{} // key -> buffer index of its lane
			batchOf := make([]int, len(buf))
			for i := range batchOf {
				batchOf[i] = -1
			}
			for bi, b := range run.Batches {
				inBatch := map[queries.Key]bool{}
				for _, qi := range b.Queries {
					k := queries.KeyOf(buf[qi])
					if prev, ok := lanes[k]; ok {
						t.Errorf("key %v ran two lanes: buffer %d and %d", k, prev, qi)
					}
					lanes[k] = qi
					inBatch[k] = true
				}
				for _, qi := range b.Coalesced {
					if !inBatch[queries.KeyOf(buf[qi])] {
						t.Errorf("batch %d coalesced %s without a lane of its key", bi, buf[qi])
					}
				}
				if got, want := len(res.Batches[bi]), len(b.Queries)+len(b.Coalesced); got != want {
					t.Errorf("batch %d lists %d indices, trace has %d lanes + coalesced", bi, got, want)
				}
				for _, qi := range res.Batches[bi] {
					if batchOf[qi] >= 0 {
						t.Fatalf("buffer index %d listed in batches %d and %d", qi, batchOf[qi], bi)
					}
					batchOf[qi] = bi
				}
			}
			if len(lanes) != distinctKeys {
				t.Errorf("%d lanes ran, want one per each of the %d distinct computations", len(lanes), distinctKeys)
			}
			if got := col.Snapshot().Counters.Queries; got != distinctKeys {
				t.Errorf("queries counter = %d, want %d lanes", got, distinctKeys)
			}
			for i, q := range buf {
				if batchOf[i] < 0 {
					t.Fatalf("buffer index %d (%s) in no batch", i, q)
				}
				got := res.Values[i]
				for v := range want[i] {
					if got[v] != want[i][v] {
						t.Fatalf("query %d (%s) v%d = %v, golden %v", i, q, v, got[v], want[i][v])
					}
				}
				canon := lanes[queries.KeyOf(q)]
				if canon == i {
					continue
				}
				cv := res.Values[canon]
				if &got[0] == &cv[0] {
					t.Errorf("query %d shares its vector with its canonical %d", i, canon)
				}
				for v := range cv {
					if got[v] != cv[v] {
						t.Fatalf("query %d (%s) v%d = %v, canonical %d has %v", i, q, v, got[v], canon, cv[v])
					}
				}
				dl, _ := res.QueryLatency(i)
				cl, _ := res.QueryLatency(canon)
				if dl != cl {
					t.Errorf("query %d completes at %v, its canonical %d at %v", i, dl, canon, cl)
				}
			}
		})
	}

	rt, err := glign.NewRuntime(g, glign.WithBatchSize(4), glign.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(0); err != nil {
		t.Fatal(err)
	}
}
