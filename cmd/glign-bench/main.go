// Command glign-bench regenerates the tables and figures of the paper's
// evaluation section on the synthetic stand-in graphs. Each experiment id
// maps to one paper artifact (see DESIGN.md's experiment index).
//
// Examples:
//
//	glign-bench -list
//	glign-bench -exp fig11                 # overall speedups
//	glign-bench -exp all -short            # everything, CI scale
//	glign-bench -exp tab9 -graphs LJ,TW -workloads BFS,SSSP -size small
//	glign-bench -exp fig11 -short -metrics-out m.json   # per-iteration telemetry
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/glign/glign/internal/bench"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/perf"
	"github.com/glign/glign/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "glign-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp       = flag.String("exp", "", "experiment id (fig1, fig7, tab8, ... or 'all')")
		list      = flag.Bool("list", false, "list experiments")
		short     = flag.Bool("short", false, "CI-scale configuration")
		size      = flag.String("size", "", "override size class (tiny, small, medium)")
		buffer    = flag.Int("buffer", 0, "override buffer size")
		batch     = flag.Int("batch", 0, "override batch size")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		graphsCSV = flag.String("graphs", "", "restrict to datasets (comma-separated)")
		wlCSV     = flag.String("workloads", "", "restrict to workloads (comma-separated)")
		metricOut = flag.String("metrics-out", "", "write a telemetry snapshot (per-iteration frontier sizes, edges relaxed, batch compositions) as JSON to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-6s  %-18s  %s\n", e.ID, e.Paper, e.Title)
		}
		return nil
	}
	if *exp == "" {
		return fmt.Errorf("-exp or -list is required")
	}

	cfg := bench.DefaultConfig(*short)
	cfg.Workers = *workers
	if *size != "" {
		switch *size {
		case "tiny":
			cfg.Size = graph.Tiny
		case "small":
			cfg.Size = graph.Small
		case "medium":
			cfg.Size = graph.Medium
		default:
			return fmt.Errorf("unknown size %q", *size)
		}
		cfg.LLC = bench.LLCFor(cfg.Size)
	}
	if *buffer > 0 {
		cfg.BufferSize = *buffer
	}
	if *batch > 0 {
		cfg.BatchSize = *batch
	}
	if *graphsCSV != "" {
		cfg.Graphs = nil
		for _, s := range strings.Split(*graphsCSV, ",") {
			cfg.Graphs = append(cfg.Graphs, graph.Dataset(strings.TrimSpace(s)))
		}
	}
	if *wlCSV != "" {
		cfg.Workloads = nil
		for _, s := range strings.Split(*wlCSV, ",") {
			cfg.Workloads = append(cfg.Workloads, strings.TrimSpace(s))
		}
	}
	if *metricOut != "" {
		cfg.Telemetry = telemetry.NewCollector()
	}

	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		fmt.Printf("### %s (%s): %s\n", e.ID, e.Paper, e.Title)
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
	}
	if *metricOut != "" {
		// Same temp-file+rename path the perf harness uses for its reports: a
		// run killed mid-write never leaves a truncated artifact where CI (or
		// a dashboard tailing the file) would read garbage.
		if err := perf.WriteJSONAtomic(*metricOut, cfg.Telemetry.Snapshot()); err != nil {
			return err
		}
		c := cfg.Telemetry.Counters.Snapshot()
		fmt.Printf("telemetry: %d method runs, %d batches, %d iterations -> %s\n",
			c.Runs, c.Batches, c.Iterations, *metricOut)
	}
	return nil
}
