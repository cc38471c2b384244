package bench

import (
	"fmt"
	"io"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/stats"
)

// A grid is the comparison most of the paper's artifacts print: a row per
// graph × workload cell and a column per method, each entry the method's
// reading on the cell's buffer. With a base, the base's own reading comes
// first, every other method is shown against it, and a last row holds each
// method's geomean over the cells.
type grid struct {
	methods []string
	// base is the method the others are shown against; "" shows each
	// method's own reading.
	base string
	by   measure
	// graphs and workloads fix the cells; nil takes the configured ones.
	graphs    []graph.Dataset
	workloads []string
}

// A measure is how a grid reads one method on one buffer.
type measure struct {
	name string
	read func(method string, e *env, buf []queries.Query, cfg Config) (float64, error)
	show func(float64) string
	// against is a reading relative to the base's, shown by showAgainst;
	// its geomean over the cells is the summary row.
	against     func(base, x float64) float64
	showAgainst func(float64) string
	vs          string // how a relative column reads, given the base
}

// wallTime times one run of the whole buffer; a method is shown as its
// speedup over the base.
var wallTime = measure{
	name: "wall time",
	read: func(method string, e *env, buf []queries.Query, cfg Config) (float64, error) {
		d, err := runTimed(method, e, buf, cfg)
		return d.Seconds(), err
	},
	show:        stats.FormatDuration,
	against:     stats.Speedup,
	showAgainst: func(s float64) string { return fmt.Sprintf("%.2fx", s) },
	vs:          "speedup over %s",
}

// misses replays the buffer's first batch through the simulated LLC; a
// method is shown as its misses in percent of the base's.
var misses = measure{
	name: "simulated LLC misses of the first batch",
	read: func(method string, e *env, buf []queries.Query, cfg Config) (float64, error) {
		n, err := measureLLC(method, e, buf, cfg)
		return float64(n), err
	},
	show: stats.FormatCount,
	against: func(base, x float64) float64 {
		if base == 0 {
			return 0
		}
		return x / base
	},
	showAgainst: func(r float64) string { return fmt.Sprintf("%.0f%%", 100*r) },
	vs:          "misses in percent of %s's",
}

func (g grid) run(cfg Config, w io.Writer) error {
	graphs, workloads := g.graphs, g.workloads
	if graphs == nil {
		graphs = cfg.graphs()
	}
	if workloads == nil {
		workloads = cfg.workloads()
	}
	methods := g.methods
	title := fmt.Sprintf("%s (buffer %d, batch %d)", g.by.name, cfg.BufferSize, cfg.BatchSize)
	if g.base != "" {
		methods = append([]string{g.base}, methods...)
		title += "; methods as " + fmt.Sprintf(g.by.vs, g.base)
	}
	tb := &stats.Table{Title: title, Header: append([]string{"graph", "workload"}, methods...)}
	relative := make([][]float64, len(methods))
	for _, d := range graphs {
		e := envs.get(d, cfg)
		for _, wl := range workloads {
			buf, err := bufferFor(e, wl, cfg)
			if err != nil {
				return err
			}
			row := []string{string(d), wl}
			var base float64
			for i, m := range methods {
				x, err := g.by.read(m, e, buf, cfg)
				if err != nil {
					return err
				}
				if i == 0 {
					base = x
				}
				if i == 0 || g.base == "" {
					row = append(row, g.by.show(x))
					continue
				}
				r := g.by.against(base, x)
				relative[i] = append(relative[i], r)
				row = append(row, g.by.showAgainst(r))
			}
			tb.AddRow(row...)
		}
	}
	if g.base != "" {
		geo := []string{"geomean", "", ""}
		for _, rs := range relative[1:] {
			geo = append(geo, g.by.showAgainst(stats.Geomean(rs)))
		}
		tb.AddRow(geo...)
	}
	return writeTable(w, tb)
}
