package bench

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/cachesim"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/stats"
	"github.com/glign/glign/internal/systems"
	"github.com/glign/glign/internal/telemetry"
	"github.com/glign/glign/internal/workload"
)

// Config scales the harness. The paper runs 512-query buffers with batch
// size 64 on billion-edge graphs; the defaults here shrink the buffers and
// graphs proportionally (see DESIGN.md §3).
type Config struct {
	// Size selects the synthetic graph scale.
	Size graph.SizeClass
	// BufferSize is the number of queries in each workload buffer.
	BufferSize int
	// BatchSize is |B| (paper default 64).
	BatchSize int
	// Workers bounds parallelism (<= 0: GOMAXPROCS).
	Workers int
	// Seed drives workload sampling.
	Seed int64
	// LLC is the simulated last-level cache geometry.
	LLC cachesim.Config
	// Graphs restricts experiments to these datasets when non-empty.
	Graphs []graph.Dataset
	// Workloads restricts experiments to these workload names when
	// non-empty.
	Workloads []string
	// Telemetry, when non-nil, collects per-iteration engine records for
	// every timed method run (traced LLC replays are excluded: their
	// single-threaded access-stream runs would skew the timelines). The
	// caller owns serialization (cmd/glign-bench -metrics-out).
	Telemetry *telemetry.Collector
}

// DefaultConfig returns the full-harness configuration; short=true shrinks
// everything to CI scale. The simulated LLC is scaled with the graph size
// class so that the paper's regime — graph footprint an order of magnitude
// beyond the LLC — holds at every scale (the paper's LJ is ~550 MB of CSR
// against a 40 MB LLC; the Small-class LJ stand-in is ~1.7 MB against a
// 128 KiB simulated LLC).
func DefaultConfig(short bool) Config {
	if short {
		return Config{
			Size:       graph.Tiny,
			BufferSize: 32,
			BatchSize:  8,
			Seed:       1,
			LLC:        LLCFor(graph.Tiny),
			Graphs:     []graph.Dataset{graph.LJ, graph.TW},
			Workloads:  []string{"BFS", "SSSP"},
		}
	}
	return Config{
		Size:       graph.Small,
		BufferSize: 256,
		BatchSize:  64,
		Seed:       1,
		LLC:        LLCFor(graph.Small),
	}
}

// LLCFor returns the simulated cache geometry proportioned to a graph size
// class (16-way, 64-byte lines throughout, as in cachesim.DefaultLLC).
func LLCFor(size graph.SizeClass) cachesim.Config {
	c := cachesim.DefaultLLC()
	switch size {
	case graph.Tiny:
		c.SizeBytes = 16 << 10
	case graph.Small:
		c.SizeBytes = 128 << 10
	default:
		c.SizeBytes = 2 << 20
	}
	return c
}

func (c Config) graphs() []graph.Dataset {
	if len(c.Graphs) > 0 {
		return c.Graphs
	}
	return graph.PowerLawDatasets()
}

func (c Config) workloads() []string {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return workload.WorkloadNames()
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the harness name ("fig11"); Paper is the artifact it
	// regenerates ("Figure 11"); Title is the artifact's caption.
	ID, Paper, Title string
	// Run executes the experiment, writing its table/series to w.
	Run func(cfg Config, w io.Writer) error
}

// experiments lists the paper's artifacts in the order the paper presents
// them, then the ablations: design-choice sweeps beyond the paper that
// DESIGN.md calls out.
var experiments = []Experiment{
	{ID: "fig1", Paper: "Figure 1",
		Title: "Simulated LLC misses of concurrent BFS/SSSP (motivating result)",
		Run: grid{by: misses, workloads: []string{"BFS", "SSSP"},
			methods: []string{systems.LigraS, systems.LigraC, systems.Krill, systems.Glign}}.run},
	{ID: "fig7", Paper: "Figure 7 + Table 4",
		Title: "Frontier size distribution across iterations; heavy-iteration arrival",
		Run:   runFigure7},
	{ID: "tab8", Paper: "Table 8",
		Title: "Time of evaluating a query buffer using Ligra-S",
		Run:   grid{by: wallTime, methods: []string{systems.LigraS}}.run},
	{ID: "fig11", Paper: "Figure 11",
		Title: "Overall performance: speedups over Ligra-S",
		Run: grid{by: wallTime, base: systems.LigraS,
			methods: []string{systems.LigraC, systems.GraphM, systems.Krill,
				systems.GlignIntra, systems.GlignInter, systems.GlignBatch, systems.Glign}}.run},
	{ID: "tab9", Paper: "Table 9",
		Title: "Simulated LLC misses per method",
		Run: grid{by: misses,
			methods: []string{systems.LigraS, systems.LigraC, systems.GraphM, systems.Krill, systems.Glign}}.run},
	{ID: "fig12", Paper: "Figure 12",
		Title: "Speedups of Glign-Intra over Ligra-C (query-oblivious frontier)",
		Run:   grid{by: wallTime, base: systems.LigraC, methods: []string{systems.GlignIntra}}.run},
	{ID: "tab10", Paper: "Table 10",
		Title: "LLC miss reduction by Glign-Intra (ratio vs Ligra-C)",
		Run:   grid{by: misses, base: systems.LigraC, methods: []string{systems.GlignIntra}}.run},
	{ID: "tab11", Paper: "Table 11",
		Title: "Memory footprint breakdown (graph / vertex values / frontier)",
		Run:   runTable11},
	{ID: "fig13", Paper: "Figure 13",
		Title: "Speedups of Glign-Inter over Glign-Intra (delayed start)",
		Run:   grid{by: wallTime, base: systems.GlignIntra, methods: []string{systems.GlignInter}}.run},
	{ID: "fig14", Paper: "Figure 14",
		Title: "Affinity (1-affinity, lower is better) of Intra vs Inter vs Batch",
		Run:   runFigure14},
	{ID: "tab12", Paper: "Table 12",
		Title: "LLC miss reduction by Glign-Inter (ratio vs Glign-Intra)",
		Run:   grid{by: misses, base: systems.GlignIntra, methods: []string{systems.GlignInter}}.run},
	{ID: "tab13", Paper: "Table 13",
		Title: "Ground-truth study: heuristic vs optimal alignment on query pairs",
		Run:   runTable13},
	{ID: "tab14", Paper: "Table 14",
		Title: "Profiling cost vs query evaluation cost",
		Run:   runTable14},
	{ID: "fig15", Paper: "Figure 15",
		Title: "Speedups of Glign-Batch over Glign-Intra (affinity-oriented batching)",
		Run:   grid{by: wallTime, base: systems.GlignIntra, methods: []string{systems.GlignBatch}}.run},
	{ID: "fig16", Paper: "Figure 16",
		Title: "Impact of query batch size (speedup over Ligra-S)",
		Run:   runFigure16},
	{ID: "tab15", Paper: "Table 15",
		Title: "Performance on road networks (speedups over Ligra-S)",
		Run: grid{by: wallTime, base: systems.LigraS,
			graphs: graph.RoadDatasets(), workloads: []string{"SSSP", "BFS", "SSWP"},
			methods: []string{systems.LigraC, systems.GlignIntra, systems.GlignInter,
				systems.GlignBatch, systems.Glign}}.run},
	{ID: "tab16", Paper: "Table 16",
		Title: "Comparison with iBFS (concurrent BFS grouping)",
		Run: grid{by: wallTime, base: systems.IBFS, workloads: []string{"BFS"},
			methods: []string{systems.GlignIntra, systems.GlignBatch}}.run},
	{ID: "abl-affinity", Paper: "ablation",
		Title: "Vertex- vs edge-based affinity (§3.3 'minimal differences' claim)",
		Run:   runAblationAffinity},
	{ID: "abl-hubs", Paper: "ablation",
		Title: "Hub count K sweep: alignment accuracy and Glign-Inter speedup",
		Run:   runAblationHubs},
	{ID: "abl-llc", Paper: "ablation",
		Title: "Simulated LLC size sweep: Glign/Ligra-C miss ratio",
		Run:   runAblationLLC},
	{ID: "abl-order", Paper: "ablation",
		Title: "Graph reordering x alignment: simulated misses of Glign and Ligra-C per vertex ordering",
		Run:   runAblationOrder},
	{ID: "abl-window", Paper: "ablation",
		Title: "Batching window B_w sweep: Glign-Batch speedup vs reordering bound",
		Run:   runAblationWindow},
}

// All returns every experiment, the paper's artifacts first in the paper's
// presentation order.
func All() []Experiment { return slices.Clone(experiments) }

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	var ids []string
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// env is the lazily-built, cached per-dataset environment experiments
// share: graph, alignment profile, sampled sources.
type env struct {
	g       *graph.Graph
	prof    *align.Profile
	sources []graph.VertexID
}

type envCache struct {
	mu   sync.Mutex
	m    map[string]*env
	size graph.SizeClass
}

var envs = envCache{m: map[string]*env{}}

func (c *envCache) get(d graph.Dataset, cfg Config) *env {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.size != cfg.Size {
		// Config changed scale: drop the cache.
		c.m = map[string]*env{}
		c.size = cfg.Size
	}
	key := fmt.Sprintf("%s/%d/%d/%d", d, cfg.Size, cfg.Seed, cfg.BufferSize)
	if e, ok := c.m[key]; ok {
		return e
	}
	g := graph.MustGenerate(d, cfg.Size)
	prof := align.NewProfile(g, align.DefaultHubCount, cfg.Workers)
	e := &env{
		g:       g,
		prof:    prof,
		sources: workload.Sources(g, prof, cfg.BufferSize, cfg.Seed),
	}
	c.m[key] = e
	return e
}

// runTimed evaluates buffer with a method and returns the wall time of
// that single run (experiments are already minutes-scale; the paper also
// reports single runs).
func runTimed(method string, e *env, buffer []queries.Query, cfg Config) (time.Duration, error) {
	res, err := systems.Run(method, e.g, buffer, systems.Config{
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
		Profile:   e.prof,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return 0, err
	}
	return res.Duration, nil
}

// measureLLC replays one batch (the first cfg.BatchSize queries of buffer)
// of the method through the simulated LLC and returns the miss count.
// Tracing runs single-threaded.
func measureLLC(method string, e *env, buffer []queries.Query, cfg Config) (int64, error) {
	if len(buffer) > cfg.BatchSize {
		buffer = buffer[:cfg.BatchSize]
	}
	cache := cachesim.New(cfg.LLC)
	_, err := systems.Run(method, e.g, buffer, systems.Config{
		BatchSize: cfg.BatchSize,
		Workers:   1,
		Profile:   e.prof,
		Tracer:    cache,
	})
	if err != nil {
		return 0, err
	}
	return cache.Misses(), nil
}

// bufferFor builds the named workload over the environment's sources.
func bufferFor(e *env, name string, cfg Config) ([]queries.Query, error) {
	return workload.BufferFor(name, e.sources, cfg.Seed+100)
}

// writeTable renders a table as aligned text.
func writeTable(w io.Writer, tb *stats.Table) error {
	_, err := io.WriteString(w, tb.String())
	return err
}
