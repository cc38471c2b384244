package bench

import (
	"fmt"
	"io"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/order"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/stats"
	"github.com/glign/glign/internal/workload"
)

// runAblationOrder measures how single-query locality optimizations
// (vertex reordering) compose with Glign's cross-query alignments — the
// combination the paper's related-work section points at. For each
// ordering, one SSSP batch is replayed through the simulated LLC under
// Ligra-C and full Glign.
func runAblationOrder(cfg Config, w io.Writer) error {
	d := cfg.graphs()[0]
	base := envs.get(d, cfg)
	tb := &stats.Table{
		Title:  fmt.Sprintf("Reordering ablation (%s, SSSP batch %d)", d, cfg.BatchSize),
		Header: []string{"ordering", "Ligra-C misses", "Glign misses", "Glign/Ligra-C"},
	}
	cases := []struct {
		name string
		perm func(*graph.Graph) order.Permutation
	}{
		{"original", nil},
		{"degree", order.DegreeOrder},
		{"bfs", order.BFSOrder},
		{"hub-cluster", func(g *graph.Graph) order.Permutation { return order.HubClusterOrder(g, 4) }},
	}
	for _, c := range cases {
		g := base.g
		srcs := base.sources
		if c.perm != nil {
			p := c.perm(base.g)
			rg, err := order.Relabel(base.g, p)
			if err != nil {
				return err
			}
			g = rg
			srcs = make([]graph.VertexID, len(base.sources))
			for i, s := range base.sources {
				srcs[i] = p[s]
			}
		}
		e := &env{g: g, prof: align.NewProfile(g, align.DefaultHubCount, cfg.Workers), sources: srcs}
		buf := workload.Homogeneous(queries.SSSP, srcs)
		row, err := missRow(e, buf, cfg)
		if err != nil {
			return err
		}
		tb.AddRow(append([]string{c.name}, row...)...)
	}
	return writeTable(w, tb)
}
