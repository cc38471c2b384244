package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

var (
	convGraphOnce sync.Once
	convLJ        *graph.Graph
	convRoad      *graph.Graph
)

func convGraphs(t *testing.T) (*graph.Graph, *graph.Graph) {
	t.Helper()
	convGraphOnce.Do(func() {
		convLJ = graph.MustGenerate(graph.LJ, graph.Tiny)
		convRoad = graph.MustGenerate(graph.RDCA, graph.Tiny)
	})
	return convLJ, convRoad
}

func convBatch() []queries.Query {
	return []queries.Query{
		{Kernel: queries.PageRank, Source: 0},
		{Kernel: queries.LabelProp, Source: 3},
		{Kernel: queries.PageRank, Source: 7},
		{Kernel: queries.LabelProp, Source: 11},
	}
}

// TestConvergenceBatchedMatchesSequential is the convergence-paradigm
// differential: the lane-fused batched Jacobi evaluator (routed through
// every batch engine) must produce bit-identical floats to the sequential
// per-query evaluator and to the serial oracle golden, at every worker
// count — the determinism the max-residual criterion and the in-neighbor
// order contract exist to provide.
func TestConvergenceBatchedMatchesSequential(t *testing.T) {
	lj, road := convGraphs(t)
	engines := []Engine{GlignIntra, Krill, LigraC, LigraS}
	for _, g := range []*graph.Graph{lj, road} {
		batch := convBatch()
		// The oracle golden is the paradigm's independent truth.
		want := make([][]queries.Value, len(batch))
		for i, q := range batch {
			want[i] = oracle.GoldenValues(g, q)
		}
		for _, eng := range engines {
			for _, workers := range []int{1, 4} {
				br, err := eng.Run(g, batch, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s on %s (workers=%d): %v", eng.Name(), g.Name, workers, err)
				}
				for i := range batch {
					got := br.QueryValues(i)
					for v := range got {
						if got[v] != want[i][v] {
							t.Fatalf("%s on %s (workers=%d) query %s: vals[v%d] = %v, golden %v",
								eng.Name(), g.Name, workers, batch[i], v, got[v], want[i][v])
						}
					}
					if vio := oracle.CheckResult(g, batch[i], got); len(vio) != 0 {
						t.Fatalf("%s on %s query %s violates invariants: %+v", eng.Name(), g.Name, batch[i], vio)
					}
				}
				if br.LaneRounds == nil || br.LaneConverged == nil || br.LaneResiduals == nil {
					t.Fatalf("%s on %s: convergence lane metadata missing", eng.Name(), g.Name)
				}
				for i := range batch {
					if !br.LaneConverged[i] {
						t.Fatalf("%s on %s lane %d (%s) did not converge in %d rounds (residual %g)",
							eng.Name(), g.Name, i, batch[i], br.LaneRounds[i], br.LaneResiduals[i])
					}
					if br.LaneRounds[i] <= 0 {
						t.Fatalf("%s on %s lane %d: zero rounds recorded", eng.Name(), g.Name, i)
					}
				}
			}
		}
	}
}

// TestConvergenceAlignmentIgnored pins that delayed-start vectors do not
// perturb convergence batches: the Jacobi evaluator has no frontier to
// delay, so aligned and unaligned runs are identical.
func TestConvergenceAlignmentIgnored(t *testing.T) {
	_, road := convGraphs(t)
	batch := convBatch()
	plain, err := GlignIntra.Run(road, batch, Options{Workers: 2})
	if err != nil {
		t.Fatalf("unaligned: %v", err)
	}
	aligned, err := GlignIntra.Run(road, batch, Options{Workers: 2, Alignment: []int{0, 2, 4, 6}})
	if err != nil {
		t.Fatalf("aligned: %v", err)
	}
	for i := range batch {
		p, a := plain.QueryValues(i), aligned.QueryValues(i)
		for v := range p {
			if p[v] != a[v] {
				t.Fatalf("alignment changed convergence values at query %d vertex %d", i, v)
			}
		}
	}
}

// TestConvergenceMaxIterationsCaps pins the test-only round cap.
func TestConvergenceMaxIterationsCaps(t *testing.T) {
	lj, _ := convGraphs(t)
	br, err := GlignIntra.Run(lj, convBatch(), Options{Workers: 2, MaxIterations: 2})
	if err != nil {
		t.Fatalf("capped run: %v", err)
	}
	if br.GlobalIterations != 2 {
		t.Fatalf("GlobalIterations = %d, want 2", br.GlobalIterations)
	}
	for i, r := range br.LaneRounds {
		if r != 2 {
			t.Fatalf("lane %d ran %d rounds under a 2-round cap", i, r)
		}
		if br.LaneConverged[i] {
			t.Fatalf("lane %d claims convergence after 2 rounds", i)
		}
	}
}

// TestMixedParadigmBatchRejected pins the homogeneity contract: engines
// refuse batches mixing monotone and convergence kernels (the batching
// layers split them via sched.SplitParadigm before dispatch).
func TestMixedParadigmBatchRejected(t *testing.T) {
	_, road := convGraphs(t)
	mixed := []queries.Query{
		{Kernel: queries.BFS, Source: 0},
		{Kernel: queries.PageRank, Source: 1},
	}
	for _, eng := range []Engine{GlignIntra, Krill, LigraC, LigraS} {
		if _, err := eng.Run(road, mixed, Options{Workers: 1}); err == nil {
			t.Fatalf("%s accepted a mixed-paradigm batch", eng.Name())
		} else if !strings.Contains(err.Error(), "paradigm") {
			t.Fatalf("%s: error does not name the paradigm split: %v", eng.Name(), err)
		}
	}
}

// TestPrepareBatchRejectsConvergenceKernels pins the guard protecting
// engines without a Jacobi path (GraphM, Congra).
func TestPrepareBatchRejectsConvergenceKernels(t *testing.T) {
	_, road := convGraphs(t)
	_, err := PrepareBatch(road, []queries.Query{{Kernel: queries.LabelProp, Source: 0}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "iterate-to-convergence") {
		t.Fatalf("PrepareBatch accepted a convergence kernel (err = %v)", err)
	}
}

// TestFusedRoundMatchesStep runs one fused PageRank round and one of the Step
// path from the same state, and holds them to each other bit for bit: values,
// shares, residuals and counts. The state is random and differs in every
// lane, with every third lane frozen — what no whole PageRank batch reaches,
// since its lanes ignore their sources and so move in lockstep.
func TestFusedRoundMatchesStep(t *testing.T) {
	lj, _ := convGraphs(t)
	geo := newJacobiGeometry(lj)
	n := lj.NumVertices()
	rng := rand.New(rand.NewSource(5))
	for _, b := range []int{1, 2, 3, 5, 16, 65} {
		old := make([]queries.Value, n*b)
		for c := range old {
			old[c] = rng.Float64() / queries.Value(n)
		}
		batch := func() *jacobi {
			j := &jacobi{n: n, b: b, geo: geo, kers: make([]queries.ConvergenceKernel, b), done: make([]bool, b)}
			for i := range j.kers {
				j.kers[i], j.done[i] = queries.PageRank, i%3 == 1
				if !j.done[i] {
					j.running++
				}
			}
			j.old, j.next = slices.Clone(old), make([]queries.Value, n*b)
			return j
		}
		step, fused := batch(), batch()
		fused.vals = slices.Clone(old) // values in vals, shares in old
		for c := range fused.old {
			fused.old[c] /= queries.Value(geo.outDeg[c/b])
		}
		stepScratch, fusedScratch := newJacobiScratch(b, geo.maxInDeg), newJacobiScratch(b, 0)
		want, got := step.step(stepScratch, 0, n), fused.pagerank(fusedScratch, 0, n)
		if got != want {
			t.Fatalf("B=%d: fused round counts %+v, Step round %+v", b, got, want)
		}
		for i, r := range stepScratch.resid {
			if math.Float64bits(fusedScratch.resid[i]) != math.Float64bits(r) {
				t.Fatalf("B=%d lane %d: fused residual %v, Step %v", b, i, fusedScratch.resid[i], r)
			}
		}
		for c, w := range step.next {
			if math.Float64bits(fused.vals[c]) != math.Float64bits(w) {
				t.Fatalf("B=%d cell %d: fused %v, Step %v", b, c, fused.vals[c], w)
			}
			if share := w / queries.Value(geo.outDeg[c/b]); math.Float64bits(fused.next[c]) != math.Float64bits(share) {
				t.Fatalf("B=%d cell %d: next share %v, want %v", b, c, fused.next[c], share)
			}
		}
	}
}

// nanRank is PageRank with a NaN planted at its source — what a kernel whose
// arithmetic broke produces — under a round cap of six.
type nanRank struct{ queries.ConvergenceKernel }

func (nanRank) Name() string   { return "NaNRank" }
func (nanRank) MaxRounds() int { return 6 }
func (k nanRank) InitialValue(n int, v, src graph.VertexID) queries.Value {
	if v == src {
		return math.NaN()
	}
	return k.ConvergenceKernel.InitialValue(n, v, src)
}

// TestNaNResidualNeverConverges pins that a lane whose values went NaN runs to
// its round cap and is not reported converged, beside a lane that converges,
// in a batch and one query at a time — and that the serial golden agrees.
func TestNaNResidualNeverConverges(t *testing.T) {
	lj, _ := convGraphs(t)
	batch := []queries.Query{{Kernel: nanRank{queries.PageRank}, Source: 3}, {Kernel: queries.PageRank, Source: 3}}
	for _, e := range []Engine{GlignIntra, LigraS} {
		res, err := e.Run(lj, batch, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.LaneRounds[0] != 6 || res.LaneConverged[0] || !math.IsNaN(res.LaneResiduals[0]) {
			t.Fatalf("%s: the NaN lane ran %d rounds, converged=%v, residual %v; want 6, false, NaN",
				e.Name(), res.LaneRounds[0], res.LaneConverged[0], res.LaneResiduals[0])
		}
		if !res.LaneConverged[1] {
			t.Fatalf("%s: the PageRank lane beside it did not converge", e.Name())
		}
		for i, q := range batch {
			for v, wv := range oracle.GoldenValues(lj, q) {
				if got := res.Value(i, graph.VertexID(v)); math.Float64bits(got) != math.Float64bits(wv) {
					t.Fatalf("%s lane %d vertex %d = %v, golden %v", e.Name(), i, v, got, wv)
				}
			}
		}
	}
}

// TestJacobiTelemetryQuery pins the Query of the Jacobi telemetry records: a
// batch's rounds span all lanes (-1), while the one-query-at-a-time routing of
// Ligra-S and Query-Parallel records each lane's rounds under the lane. The
// records' counters add up to the result's either way.
func TestJacobiTelemetryQuery(t *testing.T) {
	_, road := convGraphs(t)
	batch := convBatch()
	for _, e := range []Engine{GlignIntra, LigraS} {
		bt := telemetry.NewCollector().StartRun(e.Name(), "").StartBatch(e.Name(), nil, nil)
		res, err := e.Run(road, batch, Options{Workers: 2, Telemetry: bt})
		if err != nil {
			t.Fatal(err)
		}
		rounds := map[int]int{}
		var sum Counts
		for _, it := range bt.Snapshot().Iterations {
			if it.Mode != telemetry.ModeJacobi {
				t.Fatalf("%s: a %q record in a convergence batch", e.Name(), it.Mode)
			}
			rounds[it.Query]++
			sum.Edges += it.EdgesProcessed
			sum.Relaxes += it.LaneRelaxations
			sum.Writes += it.ValueWrites
		}
		if sum != countersOf(res) {
			t.Fatalf("%s: records add up to %+v, result reports %+v", e.Name(), sum, countersOf(res))
		}
		want := map[int]int{-1: res.GlobalIterations}
		if e == LigraS {
			want = map[int]int{}
			for i, r := range res.LaneRounds {
				want[i] = r
			}
		}
		if fmt.Sprint(rounds) != fmt.Sprint(want) {
			t.Fatalf("%s: rounds recorded by Query %v, want %v", e.Name(), rounds, want)
		}
	}
}
