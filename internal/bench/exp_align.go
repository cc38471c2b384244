package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/sched"
	"github.com/glign/glign/internal/stats"
	"github.com/glign/glign/internal/systems"
)

// runFigure7 prints the per-iteration frontier sizes of four representative
// queries per graph and marks the heavy-iteration arrival — the first
// iteration activating a top-4 hub — as Table 4 does.
func runFigure7(cfg Config, w io.Writer) error {
	for _, d := range cfg.graphs() {
		e := envs.get(d, cfg)
		srcs := []graph.VertexID{e.sources[0], e.sources[len(e.sources)/2]}
		qs := []queries.Query{
			{Kernel: queries.SSSP, Source: srcs[0]},
			{Kernel: queries.SSSP, Source: srcs[1]},
			{Kernel: queries.BFS, Source: srcs[0]},
			{Kernel: queries.BFS, Source: srcs[1]},
		}
		tb := &stats.Table{
			Title:  fmt.Sprintf("Figure 7 (%s): frontier sizes; * marks heavy-iteration arrival", d),
			Header: []string{"query", "arrival", "sizes per iteration"},
		}
		for _, q := range qs {
			tr := align.TraceQuery(e.g, q, cfg.Workers)
			arrival := align.HeavyArrivalFromTrace(tr, e.prof.Hubs)
			var sb strings.Builder
			for j, s := range tr.Sizes {
				if j > 0 {
					sb.WriteByte(' ')
				}
				if j == arrival {
					fmt.Fprintf(&sb, "*%d", s)
				} else {
					fmt.Fprintf(&sb, "%d", s)
				}
			}
			tb.AddRow(q.String(), fmt.Sprint(arrival), sb.String())
		}
		if err := writeTable(w, tb); err != nil {
			return err
		}
	}
	return nil
}

// runFigure14 measures 1-affinity (misalignment; lower is better) under the
// three Glign configurations: Intra (FCFS batches, zero alignment), Inter
// (FCFS batches, heuristic alignment), Batch (affinity batches, zero
// alignment).
func runFigure14(cfg Config, w io.Writer) error {
	tb := &stats.Table{
		Title:  "Figure 14: 1-affinity (lower = better aligned)",
		Header: []string{"graph", "workload", "Glign-Intra", "Glign-Inter", "Glign-Batch"},
	}
	for _, d := range cfg.graphs() {
		e := envs.get(d, cfg)
		for _, wl := range cfg.workloads() {
			buf, err := bufferFor(e, wl, cfg)
			if err != nil {
				return err
			}
			traces := align.TraceBatch(e.g, buf, cfg.Workers)
			zero := func(b []int) []int { return make([]int, len(b)) }

			batchAffinity := func(batches [][]int, aligned bool) float64 {
				var vals []float64
				for _, idx := range batches {
					sub := make([]*align.Trace, len(idx))
					batch := make([]queries.Query, len(idx))
					for i, bi := range idx {
						sub[i] = traces[bi]
						batch[i] = buf[bi]
					}
					I := zero(idx)
					if aligned {
						I = e.prof.AlignmentVector(batch)
					}
					vals = append(vals, align.Affinity(sub, I))
				}
				return stats.Mean(vals)
			}

			fcfs := sched.FCFS{}.MakeBatches(buf, cfg.BatchSize)
			aff := sched.Affinity{Profile: e.prof}.MakeBatches(buf, cfg.BatchSize)
			intra := 1 - batchAffinity(fcfs, false)
			inter := 1 - batchAffinity(fcfs, true)
			batch := 1 - batchAffinity(aff, false)
			tb.AddRow(string(d), wl,
				fmt.Sprintf("%.4f", intra), fmt.Sprintf("%.4f", inter), fmt.Sprintf("%.4f", batch))
		}
	}
	return writeTable(w, tb)
}

// runTable13 samples query pairs, compares the heuristic alignment against
// the exhaustively-found optimal one, and reports the diff histogram with
// per-bucket speedups over Ligra-S.
func runTable13(cfg Config, w io.Writer) error {
	const maxShift = 8
	d := cfg.graphs()[0]
	e := envs.get(d, cfg)
	pairs := ssspPairs(e, cfg, 4, 7)

	type bucket struct {
		count                   int
		intra, inter, best, seq float64 // summed durations
	}
	buckets := map[int]*bucket{}
	for _, p := range pairs {
		heur := e.prof.AlignmentVector(p.batch)
		opt, _ := align.OptimalAlignment(p.traces, maxShift)
		diff := align.AbsDiff(align.RelativeShift(heur), align.RelativeShift(opt))

		timeRun := func(engine core.Engine, I []int) (float64, error) {
			start := time.Now()
			_, err := engine.Run(e.g, p.batch, core.Options{Workers: cfg.Workers, Alignment: I})
			return time.Since(start).Seconds(), err
		}
		seq, err := timeRun(core.LigraS, nil)
		if err != nil {
			return err
		}
		intra, err := timeRun(core.GlignIntra, nil)
		if err != nil {
			return err
		}
		inter, err := timeRun(core.GlignIntra, heur)
		if err != nil {
			return err
		}
		bst, err := timeRun(core.GlignIntra, opt)
		if err != nil {
			return err
		}
		b := buckets[diff]
		if b == nil {
			b = &bucket{}
			buckets[diff] = b
		}
		b.count++
		b.seq += seq
		b.intra += intra
		b.inter += inter
		b.best += bst
	}

	tb := &stats.Table{
		Title: fmt.Sprintf("Table 13 (%s, %d pairs): heuristic vs optimal alignment", d, len(pairs)),
		Header: []string{"diff", "cnt", "ratio",
			"speedup(Intra)", "speedup(Inter)", "speedup(Best)"},
	}
	for diff := 0; diff <= maxShift; diff++ {
		b := buckets[diff]
		if b == nil {
			continue
		}
		tb.AddRow(fmt.Sprint(diff), fmt.Sprint(b.count),
			fmt.Sprintf("%.1f%%", 100*float64(b.count)/float64(len(pairs))),
			fmt.Sprintf("%.2fx", b.seq/b.intra),
			fmt.Sprintf("%.2fx", b.seq/b.inter),
			fmt.Sprintf("%.2fx", b.seq/b.best))
	}
	return writeTable(w, tb)
}

// An ssspPair is a two-query SSSP batch and its queries' frontier traces.
type ssspPair struct {
	batch  []queries.Query
	traces []*align.Trace
}

// ssspPairs draws max(4, BufferSize/per) pairs of sources from e's sampled
// ones, with a generator seeded cfg.Seed+seed, and traces each pair.
func ssspPairs(e *env, cfg Config, per int, seed int64) []ssspPair {
	rng := rand.New(rand.NewSource(cfg.Seed + seed))
	pairs := make([]ssspPair, max(4, cfg.BufferSize/per))
	for i := range pairs {
		batch := []queries.Query{
			{Kernel: queries.SSSP, Source: e.sources[rng.Intn(len(e.sources))]},
			{Kernel: queries.SSSP, Source: e.sources[rng.Intn(len(e.sources))]},
		}
		pairs[i] = ssspPair{batch, align.TraceBatch(e.g, batch, cfg.Workers)}
	}
	return pairs
}

// runTable14 compares the one-time profiling cost (hub reverse-BFS) against
// the evaluation cost of one batch of SSSP and BFS.
func runTable14(cfg Config, w io.Writer) error {
	tb := &stats.Table{
		Title:  "Table 14: profiling cost vs one-batch query evaluation cost (Glign)",
		Header: []string{"metric"},
	}
	profRow := []string{"profiling cost"}
	// A fixed order, so the timed runs go SSSP then BFS on every invocation.
	kernels := []string{"SSSP", "BFS"}
	rows := make([][]string, len(kernels))
	for i, kernel := range kernels {
		rows[i] = []string{fmt.Sprintf("%s batch (%d)", kernel, cfg.BatchSize)}
	}
	for _, d := range cfg.graphs() {
		e := envs.get(d, cfg)
		tb.Header = append(tb.Header, string(d))
		// Rebuild the profile to time it honestly.
		p := align.NewProfile(e.g, align.DefaultHubCount, cfg.Workers)
		profRow = append(profRow, stats.FormatDuration(p.PrepTime.Seconds()))
		for i, kernel := range kernels {
			buf, err := bufferFor(e, kernel, cfg)
			if err != nil {
				return err
			}
			if len(buf) > cfg.BatchSize {
				buf = buf[:cfg.BatchSize]
			}
			dur, err := runTimed(systems.Glign, e, buf, cfg)
			if err != nil {
				return err
			}
			rows[i] = append(rows[i], stats.FormatDuration(dur.Seconds()))
		}
	}
	tb.AddRow(profRow...)
	for _, row := range rows {
		tb.AddRow(row...)
	}
	return writeTable(w, tb)
}
