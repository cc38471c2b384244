// Command benchmark is the repository's benchmark: four named workloads
// generated from one seed, an untraced pass for the end-to-end metrics a
// user of the system sees, a traced pass that times every layer from
// outside, and an oracle check of every result. BENCHMARK.json at the
// repository root describes it; README.md in this directory says what each
// number includes and excludes.
//
//	go run . -seed 1 -out DIR               every workload, both passes
//	go run . -workload road-bfs -trace 0    one workload, one pass, one JSON result line
//	go run . -repeat 10 -spec ../BENCHMARK.json
//	go run . -smoke                         tiny graphs, seconds not minutes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/perf"
)

// config is one invocation's scale: everything else about a workload is
// fixed by its spec.
type config struct {
	seed    int64
	seconds float64
	smoke   bool
	out     string
}

// budget is how long a pass measures.
func (c config) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// setups is how many cold set-ups the untraced pass takes the median of.
func (c config) setups() int {
	if c.smoke {
		return 1
	}
	return coldSetups
}

// maxReps caps the timed reps of one configuration (smoke: one).
func (c config) maxReps() int {
	if c.smoke {
		return 1
	}
	return math.MaxInt
}

// serveWindow is the measured window of the serving workload.
func (c config) serveWindow() time.Duration {
	if c.smoke {
		return 2 * time.Second
	}
	return c.budget()
}

// serveWarmup is the unmeasured stretch before it.
func (c config) serveWarmup() time.Duration {
	if c.smoke {
		return serveWarmup / 4
	}
	return serveWarmup
}

// scaled applies the smoke scale to a workload's spec.
func (c config) scaled(w workloadSpec) workloadSpec {
	if c.smoke {
		w.Size = graph.Tiny
	}
	return w
}

// passResult is the outcome of one pass over one workload.
type passResult struct {
	workload  string
	m         *metricSet
	attempted int
	failed    int
	notes     []string
	// samples is the number of latency samples behind the percentiles and
	// repCV the variation between the groups they are taken over.
	samples int
	repCV   float64
}

func newPassResult(workload string, defs []metricDef) *passResult {
	return &passResult{workload: workload, m: newMetricSet(defs)}
}

func (r *passResult) attempt(n int) { r.attempted += n }

// maxNotes bounds how many failure messages a pass keeps.
const maxNotes = 20

func (r *passResult) fail(n int, msg string) {
	r.failed += n
	if msg != "" {
		r.note("FAILED: " + msg)
	}
}

func (r *passResult) note(msg string) {
	if len(r.notes) < maxNotes {
		r.notes = append(r.notes, msg)
	}
}

// runPass runs one pass of one workload.
func runPass(w workloadSpec, cfg config, tr *tracer) (*passResult, error) {
	w = cfg.scaled(w)
	switch {
	case tr == nil && w.Serve:
		return runServe(w, cfg)
	case tr == nil:
		return runOffline(w, cfg)
	}
	tr.workload = w.Name
	if w.Serve {
		return runServeTraced(w, cfg, tr)
	}
	return runOfflineTraced(w, cfg, tr)
}

// resultLine is the last line of a single-workload run: the accepting
// driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *passResult) line() resultLine {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(r.m.defs))}
	for _, d := range r.m.defs {
		out.Metrics[d.Name] = metricValue{r.m.get(d.Name), d.Unit}
	}
	return out
}

// print writes the pass's metrics by name with their units, then its notes.
func (r *passResult) print(title string) {
	fmt.Printf("== %s: %s ==\n", r.workload, title)
	for _, d := range r.m.defs {
		fmt.Printf("%-34s %16.6g %s\n", d.Name, r.m.get(d.Name), d.Unit)
	}
	if r.samples > 0 {
		p := supportedPercentile(r.samples)
		fmt.Printf("latency samples: %d (highest percentile with ten samples beyond it: p%g); bench.rep_cv: %.4f\n", r.samples, p, r.repCV)
		if p < tailPercentile {
			fmt.Printf("note: p%d_undersampled — read latency_p%d_ms as p%g\n", tailPercentile, tailPercentile, p)
		}
	}
	fmt.Printf("attempted %d, failed %d, failed_share %.6f\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
}

// environment is written beside the results: numbers from different
// environments are not comparable.
type environment struct {
	perf.Env
	EnvMismatch bool `json:"env_mismatch"`
}

func fingerprintEnv() environment {
	env := environment{Env: perf.Fingerprint()}
	env.EnvMismatch = env.NumCPU < benchProcs
	return env
}

// resultsFile is DIR/results.json of a full run.
type resultsFile struct {
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Env       environment           `json:"env"`
	EndToEnd  map[string]resultLine `json:"end_to_end"`
	PerLayer  map[string]resultLine `json:"per_layer"`
	TraceFile string                `json:"trace_file"`
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runAll is the full benchmark: every workload untraced, then every
// workload traced, one results.json and one trace.json. It reports whether
// every operation of every pass succeeded.
func runAll(cfg config) (*resultsFile, bool, error) {
	out := &resultsFile{Seed: cfg.seed, Seconds: cfg.seconds, Env: fingerprintEnv(),
		EndToEnd: map[string]resultLine{}, PerLayer: map[string]resultLine{}, TraceFile: "trace.json"}
	ok := true
	for _, w := range workloads {
		r, err := runPass(w, cfg, nil)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", w.Name, err)
		}
		r.print("end to end (untraced)")
		out.EndToEnd[w.Name] = r.line()
		ok = ok && r.failed == 0
	}
	tr := newTracer()
	for _, w := range workloads {
		r, err := runPass(w, cfg, tr)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", w.Name, err)
		}
		r.print("per layer (traced)")
		out.PerLayer[w.Name] = r.line()
		ok = ok && r.failed == 0
	}
	if err := writeTrace(filepath.Join(cfg.out, out.TraceFile), tr.snapshot()); err != nil {
		return nil, false, err
	}
	return out, ok, writeJSON(filepath.Join(cfg.out, "results.json"), out)
}

// runOne is the single-workload mode the accepting driver uses: one pass,
// and one JSON object as the last line of standard output.
func runOne(name string, traced bool, cfg config) (bool, error) {
	w, found := workloadByName(name)
	if !found {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	var tr *tracer
	title := "end to end (untraced)"
	if traced {
		tr, title = newTracer(), "per layer (traced)"
	}
	r, err := runPass(w, cfg, tr)
	if err != nil {
		return false, err
	}
	r.print(title)
	if traced {
		if err := writeTrace(filepath.Join(cfg.out, "trace.json"), tr.snapshot()); err != nil {
			return false, err
		}
	}
	raw, err := json.Marshal(r.line())
	if err != nil {
		return false, err
	}
	fmt.Println(string(raw))
	return r.failed == 0, nil
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		out      = flag.String("out", filepath.Join(".bench_build", "out"), "directory for inputs/, results.json and trace.json")
		seconds  = flag.Float64("seconds", 24, "how long each pass of each workload measures")
		workload = flag.String("workload", "", "run only this workload and end with one JSON result line")
		trace    = flag.Int("trace", 0, "with -workload: 0 = untraced end-to-end pass, 1 = traced per-layer pass")
		smoke    = flag.Bool("smoke", false, "tiny graphs, one rep, 2 s serving window")
		repeat   = flag.Int("repeat", 0, "run every workload's untraced pass this many times (seeds seed..seed+K-1) and judge the spread against -spec")
		spec     = flag.String("spec", "BENCHMARK.json", "BENCHMARK.json holding the bounds -repeat judges against")
	)
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)
	cfg := config{seed: *seed, seconds: *seconds, smoke: *smoke, out: *out}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	env := fingerprintEnv()
	fmt.Printf("env: %s %s/%s, %q, %d CPUs, GOMAXPROCS %d, env_mismatch=%v\n",
		env.GoVersion, env.GOOS, env.GOARCH, env.CPUModel, env.NumCPU, runtime.GOMAXPROCS(0), env.EnvMismatch)

	var ok bool
	var err error
	switch {
	case *repeat > 0:
		ok, err = runRepeat(*repeat, *spec, cfg)
	case *workload != "":
		ok, err = runOne(*workload, *trace != 0, cfg)
	default:
		_, ok, err = runAll(cfg)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
