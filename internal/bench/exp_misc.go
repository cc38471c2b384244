package bench

import (
	"fmt"
	"io"

	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/stats"
	"github.com/glign/glign/internal/systems"
)

func formatBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// runTable11 prints the memory breakdown of Ligra-C vs Glign-Intra for one
// batch, exposing the frontier-footprint collapse of the query-oblivious
// design.
func runTable11(cfg Config, w io.Writer) error {
	engines := []core.Engine{core.LigraC, core.Krill, core.GlignIntra}
	header := []string{"graph", "structure"}
	for _, e := range engines {
		header = append(header, e.Name())
	}
	tb := &stats.Table{
		Title:  fmt.Sprintf("Table 11: memory footprint (%d queries)", cfg.BatchSize),
		Header: header,
	}
	for _, d := range cfg.graphs() {
		env := envs.get(d, cfg)
		fps := make([]core.Footprint, len(engines))
		for i, e := range engines {
			fps[i] = core.FootprintOf(e, env.g, cfg.BatchSize)
		}
		rows := []struct {
			name string
			get  func(core.Footprint) int64
		}{
			{"graph", func(f core.Footprint) int64 { return f.GraphBytes }},
			{"vertex values", func(f core.Footprint) int64 { return f.ValueBytes }},
			{"frontier", func(f core.Footprint) int64 { return f.FrontierBytes }},
		}
		for _, r := range rows {
			row := []string{string(d), r.name}
			for _, f := range fps {
				row = append(row, formatBytes(r.get(f)))
			}
			tb.AddRow(row...)
		}
	}
	return writeTable(w, tb)
}

// runFigure16 sweeps the batch size and reports the speedup of full Glign
// over Ligra-S at each size.
func runFigure16(cfg Config, w io.Writer) error {
	var sizes []int
	for _, s := range []int{2, 4, 8, 16, 32, 64, 128} {
		if s <= cfg.BufferSize {
			sizes = append(sizes, s)
		}
	}
	tb := &stats.Table{Title: "Figure 16: Glign speedup over Ligra-S vs batch size"}
	tb.Header = []string{"graph", "workload"}
	for _, s := range sizes {
		tb.Header = append(tb.Header, fmt.Sprintf("B=%d", s))
	}
	for _, d := range cfg.graphs() {
		e := envs.get(d, cfg)
		for _, wl := range cfg.workloads() {
			buf, err := bufferFor(e, wl, cfg)
			if err != nil {
				return err
			}
			row := []string{string(d), wl}
			for _, bs := range sizes {
				c := cfg
				c.BatchSize = bs
				base, err := runTimed(systems.LigraS, e, buf, c)
				if err != nil {
					return err
				}
				dur, err := runTimed(systems.Glign, e, buf, c)
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.2fx", stats.Speedup(base.Seconds(), dur.Seconds())))
			}
			tb.AddRow(row...)
		}
	}
	return writeTable(w, tb)
}
