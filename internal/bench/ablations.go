package bench

import (
	"fmt"
	"io"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/cachesim"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/sched"
	"github.com/glign/glign/internal/stats"
	"github.com/glign/glign/internal/systems"
)

// runAblationHubs sweeps K, reporting how often the K-hub heuristic matches
// the exhaustive optimal alignment on query pairs and the resulting
// Glign-Inter speedup over Glign-Intra.
func runAblationHubs(cfg Config, w io.Writer) error {
	d := cfg.graphs()[0]
	e := envs.get(d, cfg)
	pairs := ssspPairs(e, cfg, 8, 11)
	opt := make([]int, len(pairs)) // each pair's optimal relative shift
	for i, p := range pairs {
		optVec, _ := align.OptimalAlignment(p.traces, 8)
		opt[i] = align.RelativeShift(optVec)
	}
	tb := &stats.Table{
		Title:  fmt.Sprintf("Hub count sweep (%s, %d pairs)", d, len(pairs)),
		Header: []string{"K", "exact", "within 2", "mean |diff|", "mean affinity"},
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		prof := align.NewProfile(e.g, k, cfg.Workers)
		exact, within2, diffSum := 0, 0, 0
		var affs []float64
		for i, p := range pairs {
			heur := prof.AlignmentVector(p.batch)
			diff := align.AbsDiff(align.RelativeShift(heur), opt[i])
			if diff == 0 {
				exact++
			}
			if diff <= 2 {
				within2++
			}
			diffSum += diff
			affs = append(affs, align.Affinity(p.traces, heur))
		}
		tb.AddRow(fmt.Sprint(k),
			fmt.Sprintf("%.0f%%", 100*float64(exact)/float64(len(pairs))),
			fmt.Sprintf("%.0f%%", 100*float64(within2)/float64(len(pairs))),
			fmt.Sprintf("%.2f", float64(diffSum)/float64(len(pairs))),
			fmt.Sprintf("%.3f", stats.Mean(affs)))
	}
	return writeTable(w, tb)
}

// runAblationWindow sweeps the batching window, reporting Glign-Batch time
// and the maximum reorder displacement actually incurred.
func runAblationWindow(cfg Config, w io.Writer) error {
	d := cfg.graphs()[0]
	e := envs.get(d, cfg)
	buf, err := bufferFor(e, "SSSP", cfg)
	if err != nil {
		return err
	}
	tb := &stats.Table{
		Title:  fmt.Sprintf("Batching window sweep (%s, buffer %d, batch %d)", d, len(buf), cfg.BatchSize),
		Header: []string{"window", "time", "max displacement"},
	}
	windows := []int{cfg.BatchSize, 2 * cfg.BatchSize, 4 * cfg.BatchSize, 0}
	for _, bw := range windows {
		res, err := systems.Run(systems.GlignBatch, e.g, buf, systems.Config{
			BatchSize: cfg.BatchSize,
			Workers:   cfg.Workers,
			Window:    bw,
			Profile:   e.prof,
		})
		if err != nil {
			return err
		}
		label := fmt.Sprint(bw)
		if bw == 0 {
			label = "whole buffer"
		}
		tb.AddRow(label, stats.FormatDuration(res.Duration.Seconds()),
			fmt.Sprint(sched.MaxDisplacement(res.Batches)))
	}
	return writeTable(w, tb)
}

// runAblationLLC sweeps the simulated cache size and reports the
// Glign/Ligra-C miss ratio — showing where the locality advantage appears
// and saturates.
func runAblationLLC(cfg Config, w io.Writer) error {
	d := cfg.graphs()[0]
	e := envs.get(d, cfg)
	buf, err := bufferFor(e, "SSSP", cfg)
	if err != nil {
		return err
	}
	tb := &stats.Table{
		Title:  fmt.Sprintf("LLC size sweep (%s, batch %d)", d, cfg.BatchSize),
		Header: []string{"LLC", "Ligra-C misses", "Glign misses", "ratio"},
	}
	base := cfg.LLC
	for _, size := range []int64{base.SizeBytes / 4, base.SizeBytes, base.SizeBytes * 4, base.SizeBytes * 16} {
		c := cfg
		c.LLC = cachesim.Config{SizeBytes: size, Ways: base.Ways, LineSize: base.LineSize}
		if c.LLC.Validate() != nil {
			continue
		}
		row, err := missRow(e, buf, c)
		if err != nil {
			return err
		}
		tb.AddRow(append([]string{formatBytes(size)}, row...)...)
	}
	return writeTable(w, tb)
}

// runAblationAffinity checks the paper's claim that vertex- and edge-based
// affinity rank alignments the same way in practice: for random pairs it
// compares the optimal alignment found under each definition.
func runAblationAffinity(cfg Config, w io.Writer) error {
	d := cfg.graphs()[0]
	e := envs.get(d, cfg)
	pairs := ssspPairs(e, cfg, 8, 13)
	agree := 0
	var vDiffs []float64
	for _, p := range pairs {
		optV, _ := align.OptimalAlignment(p.traces, 6)
		// Edge-based optimum by brute force over the same shift domain.
		bestE := []int{0, 0}
		bestVal := align.AffinityEdges(p.traces, bestE, e.g)
		for s := 0; s <= 6; s++ {
			for _, I := range [][]int{{s, 0}, {0, s}} {
				if v := align.AffinityEdges(p.traces, I, e.g); v > bestVal {
					bestVal = v
					bestE = I
				}
			}
		}
		dv := align.AbsDiff(align.RelativeShift(optV), align.RelativeShift(bestE))
		if dv == 0 {
			agree++
		}
		vDiffs = append(vDiffs, float64(dv))
	}
	tb := &stats.Table{
		Title:  fmt.Sprintf("Affinity definition ablation (%s, %d pairs)", d, len(pairs)),
		Header: []string{"metric", "value"},
	}
	tb.AddRow("optimal alignments agree", fmt.Sprintf("%.0f%%", 100*float64(agree)/float64(len(pairs))))
	tb.AddRow("mean |shift difference|", fmt.Sprintf("%.2f iterations", stats.Mean(vDiffs)))
	return writeTable(w, tb)
}

// missRow replays one batch of buf under Ligra-C and full Glign and returns
// their simulated misses and Glign's in percent of Ligra-C's.
func missRow(e *env, buf []queries.Query, cfg Config) ([]string, error) {
	lc, err := misses.read(systems.LigraC, e, buf, cfg)
	if err != nil {
		return nil, err
	}
	gl, err := misses.read(systems.Glign, e, buf, cfg)
	if err != nil {
		return nil, err
	}
	return []string{misses.show(lc), misses.show(gl), misses.showAgainst(misses.against(lc, gl))}, nil
}
