package perf

import (
	"fmt"
	"testing"

	"github.com/glign/glign/internal/systems"
)

// smokeConfig is a one-kernel slice of the matrix, sized to keep the test
// under a second.
func smokeConfig() Config {
	cfg := DefaultConfig()
	cfg.Kernels = []string{"BFS"}
	cfg.Graphs = []string{"LJ"}
	cfg.Workers = []int{1, 2}
	cfg.Size = "tiny"
	cfg.Warmup = 0
	cfg.Reps = 2
	return cfg
}

func TestHarnessSmoke(t *testing.T) {
	runner, err := NewRunner(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("harness produced an invalid report: %v", err)
	}
	wantCells := 2 * 1 * 1 * 2 // methods x kernels x graphs x workers
	if len(rep.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), wantCells)
	}
	for _, c := range rep.Cells {
		if len(c.RepsNs) != 2 {
			t.Fatalf("cell %s: %d reps, want 2", c.CellKey, len(c.RepsNs))
		}
		if c.Iterations <= 0 {
			t.Fatalf("cell %s: no iterations recorded", c.CellKey)
		}
		// Single-worker cells run every loop inline; parallel cells dispatch.
		if c.Sched.Jobs+c.Sched.InlineRuns <= 0 {
			t.Fatalf("cell %s: scheduler telemetry empty: %+v", c.CellKey, c.Sched)
		}
		if c.Workers > 1 && c.Sched.Jobs <= 0 {
			t.Fatalf("cell %s: parallel cell dispatched no jobs: %+v", c.CellKey, c.Sched)
		}
	}
	// Same kernel+graph must measure identical query buffers across methods
	// and worker counts: the sampled sources depend on nothing else. (The
	// iteration count does not show it: chunks chain values within an
	// iteration, so at w > 1 it varies with the interleaving.)
	buffers := make(map[string]string)
	for _, c := range rep.Cells {
		g, _, err := runner.graphFor(c.Graph)
		if err != nil {
			t.Fatal(err)
		}
		srcs := fmt.Sprint(sampleSources(cellSeed(runner.cfg.Seed, c.CellKey), g.NumVertices(), runner.cfg.BatchSize))
		at := c.Kernel + "/" + c.Graph
		if prev, ok := buffers[at]; ok && prev != srcs {
			t.Fatalf("cell %s measures sources %s, another cell of %s measures %s", c.CellKey, srcs, at, prev)
		}
		buffers[at] = srcs
	}
	// Serial cells repeat exactly, iteration count included.
	for _, c := range rep.Cells {
		if c.Workers != 1 {
			continue
		}
		again, err := runner.MeasureCell(c.CellKey, 1)
		if err != nil {
			t.Fatal(err)
		}
		if again.Iterations != c.Iterations {
			t.Fatalf("cell %s: %d iterations, then %d on the same buffer", c.CellKey, c.Iterations, again.Iterations)
		}
	}
	if rep.Env.NumCPU <= 0 || rep.Env.GoVersion == "" || rep.Env.CPUModel == "" {
		t.Fatalf("environment fingerprint incomplete: %+v", rep.Env)
	}
}

func TestHarnessSkipsIncapableCombos(t *testing.T) {
	cfg := smokeConfig()
	cfg.Methods = []string{systems.GraphM, systems.Glign}
	cfg.Kernels = []string{"BFS", "PageRank"}
	runner, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range runner.Keys() {
		if k.Method == systems.GraphM && k.Kernel == "PageRank" {
			t.Fatal("GraphM cannot run iterate-to-convergence kernels; the matrix must skip the combo")
		}
	}
}

func TestNewRunnerRejectsBadConfig(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Kernels = nil },
		func(c *Config) { c.Kernels = []string{"NOPE"} },
		func(c *Config) { c.Size = "huge" },
		func(c *Config) { c.Reps = 0 },
		func(c *Config) { c.BatchSize = -1 },
	}
	for i, mutate := range bad {
		cfg := smokeConfig()
		mutate(&cfg)
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("case %d: NewRunner accepted a bad config", i)
		}
	}
}
