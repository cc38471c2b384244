package glign

import (
	"testing"

	"github.com/glign/glign/internal/telemetry"
)

// telemetryTestBuffer is evaluated on the paper's Figure 3 example graph in
// the consistency tests below: enough queries for two batches of two.
func telemetryTestBuffer() []Query {
	return []Query{
		{Kernel: SSSP, Source: 0},
		{Kernel: SSSP, Source: 1},
		{Kernel: SSSP, Source: 2},
		{Kernel: SSSP, Source: 4},
	}
}

// TestMetricsMatchEngineCounters cross-checks the telemetry timeline
// against the engines' own aggregate counters on the Figure 3 toy graph:
// summing edges_processed / lane_relaxations / value_writes over every
// recorded iteration must reproduce the run's EdgesProcessed /
// LaneRelaxations / ValueWrites exactly, for every method that records
// per-iteration telemetry.
func TestMetricsMatchEngineCounters(t *testing.T) {
	g := PaperExampleGraph()

	// Batch engines record one IterationStat per global iteration, so the
	// iteration count must match the report too. Per-query engines
	// (Ligra-S, Congra) record one stat per lane iteration while the
	// report counts max-over-lanes global iterations, so for them only
	// the edge/relaxation/write sums are exact.
	batchMethods := []string{
		MethodGlign, MethodGlignIntra, MethodGlignInter, MethodGlignBatch,
		MethodLigraC, MethodKrill, MethodGraphM, MethodIBFS,
	}
	laneMethods := []string{MethodLigraS, MethodCongra}

	for _, method := range append(append([]string{}, batchMethods...), laneMethods...) {
		t.Run(method, func(t *testing.T) {
			tel := NewTelemetry()
			rt, err := NewRuntime(g,
				WithMethod(method),
				WithBatchSize(2),
				WithWorkers(2),
				WithTelemetry(tel))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := rt.Run(telemetryTestBuffer())
			if err != nil {
				t.Fatal(err)
			}
			m := rep.Metrics()
			if m == nil {
				t.Fatal("Metrics() = nil with telemetry enabled")
			}
			if got, want := m.TotalEdgesProcessed(), rep.res.EdgesProcessed; got != want {
				t.Errorf("edges_processed sum = %d, engine counter = %d", got, want)
			}
			if got, want := m.TotalLaneRelaxations(), rep.res.LaneRelaxations; got != want {
				t.Errorf("lane_relaxations sum = %d, engine counter = %d", got, want)
			}
			if got, want := m.TotalValueWrites(), rep.res.ValueWrites; got != want {
				t.Errorf("value_writes sum = %d, engine counter = %d", got, want)
			}
			isLane := false
			for _, lm := range laneMethods {
				if method == lm {
					isLane = true
				}
			}
			if isLane {
				if m.TotalIterations() < rep.TotalIterations() {
					t.Errorf("iteration records = %d, want >= %d global iterations",
						m.TotalIterations(), rep.TotalIterations())
				}
			} else if got, want := m.TotalIterations(), rep.TotalIterations(); got != want {
				t.Errorf("iteration records = %d, global iterations = %d", got, want)
			}
			if len(m.Batches) != len(rep.Batches()) {
				t.Errorf("traced batches = %d, report batches = %d",
					len(m.Batches), len(rep.Batches()))
			}
			// The timeline itself must be well-formed: iterations numbered,
			// frontier sizes positive (a batch iteration with an empty
			// frontier would not have run), modes valid.
			for _, b := range m.Batches {
				for _, it := range b.Iterations {
					if it.FrontierSize <= 0 {
						t.Errorf("batch %d iter %d: frontier_size = %d",
							b.Index, it.Iter, it.FrontierSize)
					}
					if it.Mode != telemetry.ModePush {
						t.Errorf("batch %d iter %d: mode %q", b.Index, it.Iter, it.Mode)
					}
					if it.EdgesProcessed < 0 || it.ValueWrites < 0 {
						t.Errorf("batch %d iter %d: negative counters %+v",
							b.Index, it.Iter, it)
					}
				}
			}
		})
	}
}

// TestMetricsNilWithoutTelemetry: without WithTelemetry the report carries
// no trace and Metrics() reports that as nil rather than an empty object.
func TestMetricsNilWithoutTelemetry(t *testing.T) {
	rt, err := NewRuntime(PaperExampleGraph(), WithBatchSize(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(telemetryTestBuffer())
	if err != nil {
		t.Fatal(err)
	}
	if m := rep.Metrics(); m != nil {
		t.Fatalf("Metrics() = %+v, want nil without WithTelemetry", m)
	}
}

// TestTelemetrySharedAcrossRuns: one collector can observe several runtime
// runs (the cmd/glign-bench usage); global counters accumulate.
func TestTelemetrySharedAcrossRuns(t *testing.T) {
	g := PaperExampleGraph()
	tel := NewTelemetry()
	for _, method := range []string{MethodGlign, MethodLigraC} {
		rt, err := NewRuntime(g, WithMethod(method), WithBatchSize(2), WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(telemetryTestBuffer()); err != nil {
			t.Fatal(err)
		}
	}
	snap := tel.Snapshot()
	if snap.Counters.Runs != 2 {
		t.Fatalf("runs = %d, want 2", snap.Counters.Runs)
	}
	if len(snap.Runs) != 2 {
		t.Fatalf("run traces = %d, want 2", len(snap.Runs))
	}
	if snap.Counters.Iterations == 0 || snap.Counters.EdgesProcessed == 0 {
		t.Fatalf("global counters empty: %+v", snap.Counters)
	}
}
