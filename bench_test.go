package glign

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4) and every ablation at benchmark-friendly scale, one sub-benchmark of
// BenchmarkExperiments per experiment id, plus engine microbenchmarks. The
// full-size harness (with printed tables) is cmd/glign-bench; the
// experiment-id mapping is DESIGN.md's index.
//
//	go test -bench=. -benchmem                      # everything, small scale
//	go test -bench='BenchmarkExperiments/fig11$' -v  # one artifact

import (
	"fmt"
	"io"
	"testing"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/bench"
	"github.com/glign/glign/internal/cachesim"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/workload"
)

// benchCfg is the scale used by the experiment benchmarks: big enough for
// the alignment effects to be visible, small enough for -bench=. to finish
// in minutes.
func benchCfg() bench.Config {
	cfg := bench.DefaultConfig(true)
	cfg.BufferSize = 64
	cfg.BatchSize = 16
	cfg.Graphs = []graph.Dataset{graph.LJ, graph.TW}
	cfg.Workloads = []string{"BFS", "SSSP"}
	return cfg
}

// BenchmarkExperiments runs every experiment of bench.All, one
// sub-benchmark an id.
func BenchmarkExperiments(b *testing.B) {
	cfg := benchCfg()
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(cfg, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Engine microbenchmarks: per engine one batch per regime the value-array
// layout and the changed-lane mask matter in — a hub graph at the widths 16
// and 64 (few fat iterations), and a road graph (100+ thin iterations, a lane
// or two changing per active vertex) — plus a single query on the hub graph
// (B1: what Ligra-S runs per query, and the serve path's common case), and
// PageRank on the hub graph at the widths 2 and 16, where every engine with a
// Jacobi path runs the fused Jacobi round (GraphM has none and skips them),
// reporting relaxations/sec.

func benchBatch(d graph.Dataset, k queries.Kernel, width int) (*graph.Graph, []queries.Query) {
	g := graph.MustGenerate(d, graph.Small)
	srcs := workload.Sources(g, profileFor(g), width, 3)
	return g, workload.Homogeneous(k, srcs)
}

func profileFor(g *graph.Graph) *align.Profile {
	return align.NewProfile(g, align.DefaultHubCount, 0)
}

func benchBatchEngine(b *testing.B, e core.Engine) {
	for _, leg := range []struct {
		dataset graph.Dataset
		kernel  queries.Kernel
		width   int
	}{
		{graph.LJ, queries.SSSP, 1},
		{graph.LJ, queries.SSSP, 16},
		{graph.LJ, queries.SSSP, 64},
		{graph.RDCA, queries.BFS, 16},
		{graph.LJ, queries.PageRank, 2},
		{graph.LJ, queries.PageRank, 16},
	} {
		b.Run(fmt.Sprintf("%s/%s/B%d", leg.dataset, leg.kernel.Name(), leg.width), func(b *testing.B) {
			g, batch := benchBatch(leg.dataset, leg.kernel, leg.width)
			if e == core.GraphM && queries.AnyConvergent(batch) {
				b.Skip("GraphM has no Jacobi path")
			}
			// A warmed owner's batch: the arena brings the value array, the
			// mask and the Jacobi slabs, so B/op is what a batch still
			// allocates for itself.
			arena := new(core.Arena)
			b.ReportAllocs()
			b.ResetTimer()
			var relaxes int64
			for i := 0; i < b.N; i++ {
				res, err := e.Run(g, batch, core.Options{Arena: arena})
				if err != nil {
					b.Fatal(err)
				}
				relaxes += res.LaneRelaxations
				res.Release()
			}
			b.ReportMetric(float64(relaxes)/b.Elapsed().Seconds(), "relax/s")
		})
	}
}

func BenchmarkBatchLigraC(b *testing.B)     { benchBatchEngine(b, core.LigraC) }
func BenchmarkBatchKrill(b *testing.B)      { benchBatchEngine(b, core.Krill) }
func BenchmarkBatchGlignIntra(b *testing.B) { benchBatchEngine(b, core.GlignIntra) }
func BenchmarkBatchGraphM(b *testing.B)     { benchBatchEngine(b, core.GraphM) }

// Scheduler microbenchmarks: the persistent work-stealing pool on a
// 1M-element loop. README.md quotes the one-off comparison against the
// spawn-per-call scheduler the pool replaced (since deleted).

// parBenchN is >= 1M elements, per the guard's acceptance criterion.
const parBenchN = 1 << 20

func parBenchData() (data, out []float64) {
	data = make([]float64, parBenchN)
	for i := range data {
		data[i] = float64(i%97) + 0.5
	}
	return data, make([]float64, parBenchN)
}

func BenchmarkParFor(b *testing.B) {
	data, out := parBenchData()
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = data[i]*1.0001 + 1
		}
	}
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("pool/w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				par.For(parBenchN, w, 0, body)
			}
		})
	}
}

// Cache-simulator microbenchmark: touches/sec on a streaming pattern.
func BenchmarkCacheSimStream(b *testing.B) {
	c := cachesim.New(cachesim.DefaultLLC())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int64(i)*64, 8, i%4 == 0)
	}
	if c.Misses() == 0 {
		b.Fatal("no misses")
	}
}
