package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/perf"
	"github.com/glign/glign/internal/queries"
)

// TestVerdict drives gate with scripted measurements: ratios[name] lists the
// ratio each successive measurement of that cell reads.
func TestVerdict(t *testing.T) {
	here := perf.Env{GoVersion: "go1.24.0", CPUModel: "here", NumCPU: 2, GOMAXPROCS: 2}
	elsewhere := here
	elsewhere.CPUModel, elsewhere.NumCPU = "elsewhere", 1
	for _, tc := range []struct {
		name   string
		base   map[string]float64
		env    perf.Env
		ratios map[string][]float64
		pass   bool
		want   []string // substrings of the output
		reps   []int    // reps of every measurement, in order
	}{
		{
			name:   "within tolerance passes",
			base:   map[string]float64{"a": 0.5},
			ratios: map[string][]float64{"a": {0.59}},
			pass:   true, want: []string{"0.590", "base 0.500  ok\n", "0 failed", "PASS"}, reps: []int{reps},
		},
		{
			name:   "1.3x over fails",
			base:   map[string]float64{"a": 0.5},
			ratios: map[string][]float64{"a": {0.65, 0.65}},
			want:   []string{over + " (re-measured, 18 reps)", "1 failed", "FAIL"}, reps: []int{reps, remeasureReps},
		},
		{
			name:   "re-measure clears a one-off spike",
			base:   map[string]float64{"a": 0.5},
			ratios: map[string][]float64{"a": {0.65, 0.52}},
			pass:   true, want: []string{"0.520", "ok (re-measured, 18 reps)", "PASS"}, reps: []int{reps, remeasureReps},
		},
		{
			name:   "faster passes as stale",
			base:   map[string]float64{"a": 0.5},
			ratios: map[string][]float64{"a": {0.4}},
			pass:   true, want: []string{stale, "1 baseline stale", "PASS"}, reps: []int{reps},
		},
		{
			name:   "missing from the run fails",
			base:   map[string]float64{"a": 0.5, "b": 0.5},
			ratios: map[string][]float64{"a": {0.5}},
			want:   []string{"b ", notTaken, "2 cells, 1 failed", "FAIL"}, reps: []int{reps},
		},
		{
			name:   "missing from the baseline fails",
			base:   map[string]float64{"a": 0.5},
			ratios: map[string][]float64{"a": {0.5}, "b": {0.5}},
			want:   []string{unknown, "2 cells, 1 failed", "FAIL"}, reps: []int{reps, reps},
		},
		{
			name:   "fingerprint mismatch is printed and still gated",
			base:   map[string]float64{"a": 0.5},
			env:    elsewhere,
			ratios: map[string][]float64{"a": {0.65, 0.65}},
			want:   []string{"host differs", "CPUModel:elsewhere NumCPU:1", over, "FAIL"}, reps: []int{reps, remeasureReps},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := here
			if tc.env != (perf.Env{}) {
				env = tc.env
			}
			var names []string
			for _, n := range []string{"a", "b"} {
				if tc.ratios[n] != nil {
					names = append(names, n)
				}
			}
			var gotReps []int
			measure := func(name string, n int) (result, error) {
				gotReps = append(gotReps, n)
				r := tc.ratios[name][0]
				tc.ratios[name] = tc.ratios[name][1:]
				return result{ratios: []float64{r}}, nil
			}
			var out bytes.Buffer
			pass, err := gate(&out, baseline{Env: env, Ratios: tc.base}, here, names, measure)
			if err != nil {
				t.Fatal(err)
			}
			if pass != tc.pass {
				t.Errorf("pass = %v, want %v", pass, tc.pass)
			}
			for _, s := range tc.want {
				if !strings.Contains(out.String(), s) {
					t.Errorf("output lacks %q:\n%s", s, out.String())
				}
			}
			if fmt.Sprint(gotReps) != fmt.Sprint(tc.reps) {
				t.Errorf("measured with reps %v, want %v", gotReps, tc.reps)
			}
		})
	}
}

// TestMedianIgnoresADescheduledRep scripts nine rep pairs on a host whose
// speed drifts rep to rep, with the num side always 0.7 of the den side, and
// then deschedules the den side in its fastest rep. The ratio of the two
// sides' minima moves; the median paired ratio and its interval do not.
func TestMedianIgnoresADescheduledRep(t *testing.T) {
	var wall [2][]float64
	for r := 0; r < reps; r++ {
		host := 1 + 0.1*float64(r)
		wall[0] = append(wall[0], 0.7*host)
		wall[1] = append(wall[1], host)
	}
	minRatio := func() float64 { return slices.Min(wall[0]) / slices.Min(wall[1]) }
	quiet := summarize(wall, wall)
	if !approx(minRatio(), 0.7) || !approx(quiet.ratio(), 0.7) {
		t.Fatalf("quiet host: ratio of minima %v, median %v, want 0.7 both", minRatio(), quiet.ratio())
	}
	wall[1][0] = 3 // the den side's fastest rep, descheduled
	r := summarize(wall, wall)
	if approx(minRatio(), 0.7) {
		t.Errorf("ratio of minima %v did not move", minRatio())
	}
	if lo, hi, cover := r.interval(); !approx(r.ratio(), 0.7) || !approx(lo, 0.7) || !approx(hi, 0.7) || !approx(cover, 1-20.0/512) {
		t.Errorf("median %v, interval [%v, %v] at %v, want 0.7 [0.7, 0.7] at 96 %%", r.ratio(), lo, hi, cover)
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestIntervalOrderStatistics checks the interval's ranks and coverage at
// the gate's two rep counts and at one rep.
func TestIntervalOrderStatistics(t *testing.T) {
	for _, tc := range []struct {
		n, k  int
		cover float64
	}{
		{reps, 2, 1 - 2*10.0/512},
		{remeasureReps, 6, 1 - 2*12616.0/262144},
		{1, 1, 0},
	} {
		var r result
		for i := 1; i <= tc.n; i++ {
			r.ratios = append(r.ratios, float64(i))
		}
		lo, hi, cover := r.interval()
		if lo != float64(tc.k) || hi != float64(tc.n+1-tc.k) || !approx(cover, tc.cover) {
			t.Errorf("n=%d: [%v, %v] at %v, want ranks %d and %d at %v", tc.n, lo, hi, cover, tc.k, tc.n+1-tc.k, tc.cover)
		}
	}
}

// TestRunnerSmoke measures every gated cell once on tiny graphs, each side
// held to the oracle first.
func TestRunnerSmoke(t *testing.T) {
	cells, done := gatedCells(graph.Tiny)
	defer done()
	if len(cells) != 9 {
		t.Fatalf("%d cells, want 9", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.name] {
			t.Fatalf("cell %s twice", c.name)
		}
		seen[c.name] = true
		r, err := c.measure(1)
		if err != nil {
			t.Fatal(err)
		}
		if r := r.ratio(); !(r > 0) || math.IsInf(r, 0) {
			t.Fatalf("%s: ratio %v", c.name, r)
		}
	}
}

// corrupt is an engine whose answer is wrong at the first query's source.
type corrupt struct{ core.Engine }

func (c corrupt) Run(g *graph.Graph, batch []queries.Query, opt core.Options) (*core.BatchResult, error) {
	res, err := c.Engine.Run(g, batch, opt)
	if err == nil {
		i := core.Cell(int(batch[0].Source), len(batch), 0)
		res.Values.Set(i, res.Values.Get(i)+1)
	}
	return res, err
}

// TestWarmupCatchesWrongAnswer requires a corrupted engine answer to fail the
// cell before anything is timed.
func TestWarmupCatchesWrongAnswer(t *testing.T) {
	cells, done := gatedCells(graph.Tiny)
	defer done()
	c := cells[0]
	c.num = engineSide("bad", corrupt{core.GlignIntra}, c.in, core.Options{Workers: 1}, nil)
	_, err := c.measure(1)
	if err == nil || !strings.Contains(err.Error(), "disagrees with the oracle") {
		t.Fatalf("err = %v, want an oracle disagreement", err)
	}
}
