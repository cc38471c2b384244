package perf

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/systems"
)

// DefaultConfig is the gate matrix: two methods spanning the
// frontier-design spectrum (query-oblivious Glign vs two-level Ligra-C),
// kernels from both paradigms (monotone BFS/SSSP, iterate-to-convergence
// PageRank, bounded KHOP3), both synthetic graph families, and the
// 1/2/4/8 worker trajectory the ROADMAP asks for.
func DefaultConfig() Config {
	return Config{
		Matrix: Matrix{
			Methods: []string{systems.Glign, systems.LigraC},
			Kernels: []string{"BFS", "SSSP", "PageRank", "KHOP3"},
			Graphs:  []string{string(graph.LJ), string(graph.RDCA)},
			Workers: []int{1, 2, 4, 8},
		},
		Size:      "small",
		BatchSize: 4,
		Warmup:    1,
		Reps:      3,
		Seed:      0x91159,
	}
}

// Runner executes benchmark cells, caching graphs and alignment profiles
// across cells so the matrix measures evaluation, not setup.
type Runner struct {
	cfg      Config
	size     graph.SizeClass
	graphs   map[string]*graph.Graph
	profiles map[string]*align.Profile
}

// NewRunner validates cfg and prepares a runner.
func NewRunner(cfg Config) (*Runner, error) {
	if len(cfg.Methods) == 0 || len(cfg.Kernels) == 0 || len(cfg.Graphs) == 0 || len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("perf: empty matrix axis (methods/kernels/graphs/workers all required)")
	}
	if cfg.Reps <= 0 {
		return nil, fmt.Errorf("perf: reps must be positive, got %d", cfg.Reps)
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("perf: batch size must be positive, got %d", cfg.BatchSize)
	}
	var size graph.SizeClass
	switch cfg.Size {
	case "tiny":
		size = graph.Tiny
	case "small":
		size = graph.Small
	case "medium":
		size = graph.Medium
	default:
		return nil, fmt.Errorf("perf: unknown size class %q (tiny, small, medium)", cfg.Size)
	}
	for _, k := range cfg.Kernels {
		if _, err := queries.ByName(k); err != nil {
			return nil, fmt.Errorf("perf: %w", err)
		}
	}
	return &Runner{
		cfg:      cfg,
		size:     size,
		graphs:   make(map[string]*graph.Graph),
		profiles: make(map[string]*align.Profile),
	}, nil
}

// Keys expands the matrix into the cell set the report will carry, skipping
// method/kernel combinations the engines refuse (GraphM and Congra reject
// iterate-to-convergence kernels).
func (r *Runner) Keys() []CellKey {
	var keys []CellKey
	for _, m := range r.cfg.Methods {
		for _, k := range r.cfg.Kernels {
			if skipCombo(m, k) {
				continue
			}
			for _, g := range r.cfg.Graphs {
				for _, w := range r.cfg.Workers {
					keys = append(keys, CellKey{Method: m, Kernel: k, Graph: g, Workers: w})
				}
			}
		}
	}
	return keys
}

// skipCombo reports whether the method refuses the kernel's paradigm.
func skipCombo(method, kernel string) bool {
	k, err := queries.ByName(kernel)
	if err != nil {
		return true
	}
	if _, convergent := queries.ConvergentOf(k); !convergent {
		return false
	}
	return method == systems.GraphM || method == systems.Congra
}

// Run measures the full matrix and assembles the report.
func (r *Runner) Run() (*Report, error) {
	rep := &Report{
		Schema:      SchemaVersion,
		Benchmark:   "glign method-matrix trajectory",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Aggregation: "median-of-reps",
		Env:         Fingerprint(),
		Config:      r.cfg,
	}
	for _, key := range r.Keys() {
		cell, err := r.MeasureCell(key, r.cfg.Reps)
		if err != nil {
			return nil, err
		}
		rep.Cells = append(rep.Cells, cell)
	}
	rep.SortCells()
	return rep, nil
}

// MeasureCell runs one cell: warmup runs (discarded), then reps measured
// runs of systems.Run over the cell's seeded query buffer on a dedicated
// pool sized to the cell's worker count. The scheduler stats are the pool's
// counter deltas over the measured runs only.
func (r *Runner) MeasureCell(key CellKey, reps int) (Cell, error) {
	g, prof, err := r.graphFor(key.Graph)
	if err != nil {
		return Cell{}, err
	}
	kernel, err := queries.ByName(key.Kernel)
	if err != nil {
		return Cell{}, fmt.Errorf("perf: cell %s: %w", key, err)
	}
	srcs := sampleSources(cellSeed(r.cfg.Seed, key), g.NumVertices(), r.cfg.BatchSize)
	buffer := make([]queries.Query, len(srcs))
	for i, s := range srcs {
		buffer[i] = queries.Query{Kernel: kernel, Source: s}
	}
	pool := par.NewPool(key.Workers)
	defer pool.Close()
	cfg := systems.Config{
		BatchSize: r.cfg.BatchSize,
		Workers:   key.Workers,
		Pool:      pool,
		Profile:   prof,
		// Measured as a warmed owner runs it (glign.Runtime): the warm-up
		// runs fill the arena, the timed ones recycle it.
		Arena: new(core.Arena),
	}
	run := func() (int, error) {
		res, err := systems.Run(key.Method, g, buffer, cfg)
		if err != nil {
			return 0, fmt.Errorf("perf: cell %s: %w", key, err)
		}
		return res.TotalIterations, nil
	}
	for i := 0; i < r.cfg.Warmup; i++ {
		if _, err := run(); err != nil {
			return Cell{}, err
		}
	}
	cell := Cell{CellKey: key, RepsNs: make([]int64, 0, reps)}
	before := pool.Stats()
	for i := 0; i < reps; i++ {
		start := time.Now()
		iters, err := run()
		elapsed := time.Since(start).Nanoseconds()
		if err != nil {
			return Cell{}, err
		}
		if elapsed < 1 {
			elapsed = 1
		}
		cell.RepsNs = append(cell.RepsNs, elapsed)
		cell.Iterations = iters
	}
	delta := pool.Stats().Sub(before)
	cell.Sched = SchedStats{
		Jobs:           delta.Jobs,
		InlineRuns:     delta.InlineRuns,
		Chunks:         delta.Chunks,
		Steals:         delta.Steals,
		Parks:          delta.Parks,
		ImbalanceRatio: delta.ImbalanceRatio(),
	}
	cell.NsPerOp = MedianNs(cell.RepsNs)
	return cell, nil
}

// graphFor resolves (and caches) the named dataset at the configured size,
// plus its alignment profile (a one-time per-graph cost the affinity-batched
// methods need; building it here keeps it out of every cell's timing).
func (r *Runner) graphFor(name string) (*graph.Graph, *align.Profile, error) {
	if g, ok := r.graphs[name]; ok {
		return g, r.profiles[name], nil
	}
	g, err := graph.Generate(graph.Dataset(name), r.size)
	if err != nil {
		return nil, nil, fmt.Errorf("perf: %w", err)
	}
	prof := align.NewProfile(g, align.DefaultHubCount, 0)
	r.graphs[name] = g
	r.profiles[name] = prof
	return g, prof, nil
}

// cellSeed derives the per-cell sampler seed from the base seed and the cell
// name (kernel/graph only — every method and worker count must measure the
// same query buffer for cross-cell ratios to mean anything).
func cellSeed(base int64, key CellKey) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", base, key.Kernel, key.Graph)
	return int64(h.Sum64() >> 1)
}

// sampleSources draws count vertices with the same splitmix-style generator
// the differential harness uses (stable across Go releases).
func sampleSources(seed int64, n, count int) []graph.VertexID {
	out := make([]graph.VertexID, count)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = graph.VertexID(z % uint64(n))
	}
	return out
}
