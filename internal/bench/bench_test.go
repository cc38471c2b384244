package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/glign/glign/internal/graph"
)

func shortCfg() Config {
	cfg := DefaultConfig(true)
	cfg.BufferSize = 16
	cfg.BatchSize = 4
	cfg.Graphs = []graph.Dataset{graph.LJ}
	cfg.Workloads = []string{"BFS"}
	cfg.Workers = 2
	return cfg
}

// All lists the paper's 17 artifacts first, in the paper's order, and every
// experiment once.
func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig7", "tab8", "fig11", "tab9", "fig12", "tab10",
		"tab11", "fig13", "fig14", "tab12", "tab13", "tab14", "fig15", "fig16",
		"tab15", "tab16"}
	all := All()
	seen := map[string]bool{}
	for i, e := range all {
		if e.ID == "" || e.Paper == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Fatalf("experiment %s listed twice", e.ID)
		}
		seen[e.ID] = true
		if i < len(want) && e.ID != want[i] {
			t.Fatalf("experiment %d is %s, want %s (the paper's order)", i, e.ID, want[i])
		}
	}
	if len(all) < len(want) {
		t.Fatalf("%d experiments, want the paper's %d first", len(all), len(want))
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig11")
	if err != nil || e.ID != "fig11" {
		t.Fatalf("ByID: %v %v", e, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// Every experiment must run end-to-end at CI scale and produce output.
func TestAllExperimentsRunShort(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow even at tiny scale")
	}
	cfg := shortCfg()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(cfg, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestDefaultConfigs(t *testing.T) {
	full := DefaultConfig(false)
	short := DefaultConfig(true)
	if full.BufferSize <= short.BufferSize || full.BatchSize <= short.BatchSize {
		t.Fatal("full config should be larger than short")
	}
	if err := full.LLC.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := short.LLC.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(full.graphs()) != 5 {
		t.Fatalf("full graphs = %v", full.graphs())
	}
	if len(full.workloads()) != 6 {
		t.Fatalf("full workloads = %v", full.workloads())
	}
	if len(short.graphs()) != 2 || len(short.workloads()) != 2 {
		t.Fatal("short config filters not applied")
	}
}

func TestEnvCaching(t *testing.T) {
	cfg := shortCfg()
	a := envs.get(graph.LJ, cfg)
	b := envs.get(graph.LJ, cfg)
	if a != b {
		t.Fatal("environment not cached")
	}
	if len(a.sources) != cfg.BufferSize {
		t.Fatalf("sources = %d, want %d", len(a.sources), cfg.BufferSize)
	}
}

// The headline claim at tiny scale: Glign must beat the two-level design on
// simulated LLC misses (Figure 1 / Table 9's shape).
func TestGlignReducesSimulatedMisses(t *testing.T) {
	cfg := shortCfg()
	cfg.BufferSize = 32
	cfg.BatchSize = 32
	e := envs.get(graph.TW, cfg)
	buf, err := bufferFor(e, "SSSP", cfg)
	if err != nil {
		t.Fatal(err)
	}
	twoLevel, err := measureLLC("Ligra-C", e, buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	glign, err := measureLLC("Glign", e, buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if glign >= twoLevel {
		t.Fatalf("Glign misses %d >= Ligra-C misses %d — locality claim broken", glign, twoLevel)
	}
	t.Logf("simulated LLC misses: Ligra-C=%d Glign=%d (ratio %.2f)",
		twoLevel, glign, float64(glign)/float64(twoLevel))
}

func TestTableOutputShape(t *testing.T) {
	cfg := shortCfg()
	var buf bytes.Buffer
	e, err := ByID("tab11")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 11", "frontier", "Glign-Intra", "Ligra-C"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tab11 output missing %q:\n%s", want, out)
		}
	}
}
