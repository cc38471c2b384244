package bench

import (
	"fmt"
	"io"
	"sort"
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
	// CSV switches experiment output from aligned text tables to CSV.
	CSV bool
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

var (
	registryMu sync.Mutex
	registry   []Experiment
)

func register(e Experiment) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry = append(registry, e)
}

// paperOrder is the presentation order of the artifacts in the paper.
var paperOrder = map[string]int{
	"fig1": 1, "fig7": 2, "tab8": 3, "fig11": 4, "tab9": 5, "fig12": 6,
	"tab10": 7, "tab11": 8, "fig13": 9, "fig14": 10, "tab12": 11, "tab13": 12,
	"tab14": 13, "fig15": 14, "fig16": 15, "tab15": 16, "tab16": 17,
}

// All returns every experiment in the paper's presentation order
// (unrecognized ids, e.g. ablations, sort after the paper artifacts).
func All() []Experiment {
	registryMu.Lock()
	out := append([]Experiment(nil), registry...)
	registryMu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		oi, oki := paperOrder[out[i].ID]
		oj, okj := paperOrder[out[j].ID]
		switch {
		case oki && okj:
			return oi < oj
		case oki:
			return true
		case okj:
			return false
		default:
			return out[i].ID < out[j].ID
		}
	})
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
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

// runTimed evaluates buffer with a method and returns the wall time, taking
// the best of one run (experiments are already minutes-scale; the paper
// also reports single runs).
func runTimed(method string, e *env, buffer []queries.Query, cfg Config) (time.Duration, *systems.Result, error) {
	res, err := systems.Run(method, e.g, buffer, systems.Config{
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
		Profile:   e.prof,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return 0, nil, err
	}
	return res.Duration, res, nil
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

// writeTable renders a table in the configured format.
func writeTable(cfg Config, w io.Writer, tb *stats.Table) error {
	if cfg.CSV {
		if tb.Title != "" {
			if _, err := fmt.Fprintf(w, "# %s\n", tb.Title); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, tb.CSV())
		return err
	}
	_, err := io.WriteString(w, tb.String())
	return err
}
