// Command glign-perfgate is the measured-performance gate verify.sh runs. It
// measures nine ratio cells, each the quotient of two ways to answer one
// batch, and fails when a ratio lies more than 1.2× above the one recorded in
// results/perf-baseline.json.
//
// A cell's two sides run alternately rep by rep, in reverse order every other
// rep, on one pool and arena per worker count: whatever slows the host slows
// both reps of a pair, and their ratio cancels it. Absolute times are printed,
// never gated. Each side first answers once and is held to the serial oracle,
// so the gate never times a wrong answer. A cell reads the median of its
// reps' paired ratios num÷den, printed with the narrowest order-statistic
// interval around it that covers the median with at least 90 % confidence,
// and each side's median wall and CPU milliseconds a rep (the CPU time, from
// getrusage, tells a descheduled rep from slower code). A cell above
// baseline × 1.2 is re-measured once with twice the reps and fails only if it
// still is; a cell below baseline ÷ 1.2 passes, marked "baseline stale"; a
// cell on only one side of the comparison fails. A host fingerprint other than
// the baseline's is printed in the verdict line and changes nothing else.
//
//	go run ./cmd/glign-perfgate                   # gate: exit 1 on a failed cell
//	go run ./cmd/glign-perfgate -write-baseline   # record this host's ratios
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/perf"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
	"github.com/glign/glign/internal/workload"
)

const (
	tolerance     = 1.2
	reps          = 9
	remeasureReps = 2 * reps
	baselinePath  = "results/perf-baseline.json"
)

func main() {
	record := flag.Bool("write-baseline", false, "measure every cell and record its ratio and this host's fingerprint in "+baselinePath)
	flag.Parse()
	start := time.Now()
	ok, err := run(os.Stdout, *record)
	fmt.Printf("glign-perfgate: %.1fs\n", time.Since(start).Seconds())
	if err != nil {
		fmt.Fprintln(os.Stderr, "glign-perfgate:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(w io.Writer, record bool) (bool, error) {
	cells, done := gatedCells(graph.Small)
	defer done()
	env := perf.Fingerprint()
	if record {
		b := baseline{Env: env, Ratios: map[string]float64{}}
		for _, c := range cells {
			r, err := c.measure(reps)
			if err != nil {
				return false, err
			}
			b.Ratios[c.name] = r.ratio()
			printCell(w, c.name, r, r.ratio(), "recorded")
		}
		return true, perf.WriteJSONAtomic(baselinePath, b)
	}
	var base baseline
	raw, err := os.ReadFile(baselinePath)
	if err == nil {
		err = json.Unmarshal(raw, &base)
	}
	if err != nil {
		return false, fmt.Errorf("%w (record one with -write-baseline)", err)
	}
	byName := make(map[string]cell, len(cells))
	var names []string
	for _, c := range cells {
		byName[c.name] = c
		names = append(names, c.name)
	}
	return gate(w, base, env, names, func(name string, n int) (result, error) {
		return byName[name].measure(n)
	})
}

// baseline is what -write-baseline records: the host and every cell's ratio.
type baseline struct {
	Env    perf.Env           `json:"env"`
	Ratios map[string]float64 `json:"ratios"`
}

// Verdicts of one cell.
const (
	pass     = "ok"
	stale    = "ok, baseline stale"
	over     = "FAIL: above baseline × 1.2"
	unknown  = "FAIL: not in the baseline"
	notTaken = "FAIL: in the baseline, not measured"
)

func judge(ratio, want float64, known bool) string {
	switch {
	case !known:
		return unknown
	case ratio > want*tolerance:
		return over
	case ratio < want/tolerance:
		return stale
	}
	return pass
}

// gate measures the cells names, re-measures once with remeasureReps a cell
// above tolerance, prints a line a cell and the verdict line, and reports
// whether every cell, and every cell of base, passed.
func gate(w io.Writer, base baseline, env perf.Env, names []string, measure func(name string, reps int) (result, error)) (bool, error) {
	failed, stales := 0, 0
	for _, name := range names {
		r, err := measure(name, reps)
		if err != nil {
			return false, err
		}
		want, known := base.Ratios[name]
		v := judge(r.ratio(), want, known)
		if v == over {
			if r, err = measure(name, remeasureReps); err != nil {
				return false, err
			}
			v = judge(r.ratio(), want, known) + fmt.Sprintf(" (re-measured, %d reps)", remeasureReps)
		}
		if strings.HasPrefix(v, "FAIL") {
			failed++
		} else if strings.HasPrefix(v, stale) {
			stales++
		}
		printCell(w, name, r, want, v)
	}
	missing := make([]string, 0, len(base.Ratios))
	for name := range base.Ratios {
		if !slices.Contains(names, name) {
			missing = append(missing, name)
		}
	}
	slices.Sort(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "%-30s %35s base %.3f  %s\n", name, "", base.Ratios[name], notTaken)
		failed++
	}
	host := "host matches the baseline's"
	if env != base.Env {
		host = fmt.Sprintf("host differs from the baseline's: here %+v, baseline %+v", env, base.Env)
	}
	verdict := "PASS"
	if failed > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "glign-perfgate: %d cells, %d failed, %d baseline stale, tolerance ×%.1f; %s — %s\n",
		len(names)+len(missing), failed, stales, tolerance, host, verdict)
	return failed == 0, nil
}

func printCell(w io.Writer, name string, r result, want float64, verdict string) {
	lo, hi, cover := r.interval()
	fmt.Fprintf(w, "%-30s ratio %.3f [%.3f, %.3f] %2.0f%%  wall %.2f÷%.2f ms  cpu %.2f÷%.2f ms  base %.3f  %s\n",
		name, r.ratio(), lo, hi, 100*cover, r.wall[0]*1e3, r.wall[1]*1e3, r.cpu[0]*1e3, r.cpu[1]*1e3, want, verdict)
}

// result is one measurement of a cell: every rep's paired ratio num÷den,
// sorted, and each side's median wall and CPU seconds a rep.
type result struct {
	ratios    []float64
	wall, cpu [2]float64
}

// summarize pairs the reps of the two sides, wall[0][i] with wall[1][i].
func summarize(wall, cpu [2][]float64) result {
	var r result
	for i := range wall[0] {
		r.ratios = append(r.ratios, wall[0][i]/wall[1][i])
	}
	slices.Sort(r.ratios)
	for k := range wall {
		r.wall[k], r.cpu[k] = median(wall[k]), median(cpu[k])
	}
	return r
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// ratio is the cell's reading: the median paired ratio.
func (r result) ratio() float64 { return median(r.ratios) }

// interval returns the k-th and (n+1-k)-th smallest of the n ratios for the
// largest k whose interval still covers the median with probability
// 1 - 2·P(Binomial(n, ½) < k) >= 0.9, and that probability: at 9 reps the
// 2nd and 8th, 96 %. Below 5 reps even the extremes cover less than 0.9;
// it returns them.
func (r result) interval() (lo, hi, cover float64) {
	n := len(r.ratios)
	k, below := 1, 1.0 // below: the ways fewer than k of n fall under the median
	cover = 1 - math.Ldexp(2*below, -n)
	for choose := 1.0; ; k++ {
		choose = choose * float64(n-k+1) / float64(k) // C(n, k)
		next := 1 - math.Ldexp(2*(below+choose), -n)
		if next < 0.9 {
			break
		}
		below, cover = below+choose, next
	}
	return r.ratios[k-1], r.ratios[n-k], cover
}

// An input is one batch, drawn the way bench_test.go's benchBatch draws it.
type input struct {
	name   string
	g      *graph.Graph
	batch  []queries.Query
	golden [][]queries.Value // the oracle's answers
}

// check holds a side's answers to the oracle.
func (in *input) check(side string, got [][]queries.Value) error {
	for i, want := range in.golden {
		for v := range want {
			if got[i][v] != want[v] {
				return fmt.Errorf("%s on %s: query %d disagrees with the oracle at vertex %d: %v != %v", side, in.name, i, v, got[i][v], want[v])
			}
		}
	}
	return nil
}

// A side is one way to answer an input's batch: run evaluates it once and,
// when keep is set, returns every query's values.
type side struct {
	name string
	run  func(keep bool) ([][]queries.Value, error)
}

// engineSide runs e with opt; with col set, every run records its telemetry
// there, as an observed production batch does.
func engineSide(name string, e core.Engine, in *input, opt core.Options, col *telemetry.Collector) side {
	return side{name, func(keep bool) ([][]queries.Value, error) {
		o := opt
		o.Telemetry = col.StartRun("perfgate", "FCFS").StartBatch(e.Name(), nil, nil)
		res, err := e.Run(in.g, in.batch, o)
		if err != nil {
			return nil, err
		}
		defer res.Release()
		if !keep {
			return nil, nil
		}
		return res.AllQueryValues(o.Pool, o.Workers), nil
	}}
}

// refSide is the serial oracle itself, which shares no traversal code with
// the engines: one golden evaluation a query.
func refSide(in *input) side {
	return side{"REF", func(bool) ([][]queries.Value, error) {
		out := make([][]queries.Value, len(in.batch))
		for i, q := range in.batch {
			out[i] = oracle.GoldenValues(in.g, q)
		}
		return out, nil
	}}
}

// A cell is the ratio num÷den of two sides answering one input.
type cell struct {
	name     string
	in       *input
	num, den side
}

// measure answers once with each side, held to the oracle, then times reps
// runs of each, the two alternating and swapping order every other rep.
func (c cell) measure(reps int) (result, error) {
	sides := [2]side{c.num, c.den}
	for _, s := range sides {
		got, err := s.run(true)
		if err == nil {
			err = c.in.check(s.name, got)
		}
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	var wall, cpu [2][]float64
	for r := 0; r < reps; r++ {
		for j := range sides {
			k := j ^ (r & 1)
			start, cpu0 := time.Now(), cpuSeconds()
			if _, err := sides[k].run(false); err != nil {
				return result{}, fmt.Errorf("%s: %w", c.name, err)
			}
			wall[k] = append(wall[k], time.Since(start).Seconds())
			cpu[k] = append(cpu[k], cpuSeconds()-cpu0)
		}
	}
	return summarize(wall, cpu), nil
}

// cpuSeconds is the user and system time this process has used. Getrusage
// fails only on a bad argument, and the reading is printed, never gated, so
// its error is dropped.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// gatedCells lays out the nine cells on graphs of size. Each ratio compares
// two sides at one parallelism, so the serial oracle (REF) pairs only with
// one worker; it is left out at B64 (0.6 s a rep), and Ligra-C is left out of
// PageRank, where it runs Glign-Intra's Jacobi evaluator. done closes the
// pools.
func gatedCells(size graph.SizeClass) (cells []cell, done func()) {
	pools := map[int]*par.Pool{1: par.NewPool(1), 2: par.NewPool(2)}
	arenas := map[int]*core.Arena{1: new(core.Arena), 2: new(core.Arena)}
	opt := func(w int) core.Options { return core.Options{Workers: w, Pool: pools[w], Arena: arenas[w]} }
	gi := func(in *input, w int) side { return engineSide("GI", core.GlignIntra, in, opt(w), nil) }
	lc := func(in *input, w int) side { return engineSide("LC", core.LigraC, in, opt(w), nil) }
	add := func(in *input, w int, num, den side) {
		cells = append(cells, cell{fmt.Sprintf("%s/w%d %s÷%s", in.name, w, num.name, den.name), in, num, den})
	}
	graphs := map[graph.Dataset]*graph.Graph{}
	profiles := map[graph.Dataset]*align.Profile{}
	draw := func(d graph.Dataset, k queries.Kernel, width int) *input {
		if graphs[d] == nil {
			graphs[d] = graph.MustGenerate(d, size)
			profiles[d] = align.NewProfile(graphs[d], align.DefaultHubCount, 0)
		}
		srcs := workload.Sources(graphs[d], profiles[d], width, 3)
		in := &input{name: fmt.Sprintf("%s/%s/B%d", d, k.Name(), width), g: graphs[d], batch: workload.Homogeneous(k, srcs)}
		in.golden, _ = refSide(in).run(true)
		return in
	}

	lj16 := draw(graph.LJ, queries.SSSP, 16)
	add(lj16, 1, gi(lj16, 1), lc(lj16, 1))
	add(lj16, 2, gi(lj16, 2), lc(lj16, 2))
	add(lj16, 1, gi(lj16, 1), refSide(lj16))
	add(lj16, 1, engineSide("GI+tel", core.GlignIntra, lj16, opt(1), telemetry.NewCollector()), gi(lj16, 1))
	lj64 := draw(graph.LJ, queries.SSSP, 64)
	add(lj64, 1, gi(lj64, 1), lc(lj64, 1))
	rd := draw(graph.RDCA, queries.BFS, 16)
	add(rd, 1, gi(rd, 1), lc(rd, 1))
	add(rd, 2, gi(rd, 2), lc(rd, 2))
	add(rd, 1, gi(rd, 1), refSide(rd))
	pr := draw(graph.LJ, queries.PageRank, 2)
	add(pr, 1, gi(pr, 1), refSide(pr))
	return cells, func() {
		for _, p := range pools {
			p.Close()
		}
	}
}
