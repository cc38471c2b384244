package glign

import (
	"testing"

	"github.com/glign/glign/internal/queries"
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

// TestTraceCoversBufferOnce: in a buffer with equivalent queries (a repeated
// SSSP, PageRank from three sources), every batch's lanes plus its coalesced
// indices cover the buffer exactly once, a coalesced index shares a lane's
// computation key, and the queries counter counts only the lanes that ran.
func TestTraceCoversBufferOnce(t *testing.T) {
	g := PaperExampleGraph()
	buf := append(telemetryTestBuffer(),
		Query{Kernel: SSSP, Source: 1},
		Query{Kernel: PageRank, Source: 0},
		Query{Kernel: PageRank, Source: 3},
		Query{Kernel: PageRank, Source: 5},
	)
	const lanes = 5 // four SSSP sources and one PageRank
	for _, method := range []string{MethodGlign, MethodLigraC, MethodKrill} {
		t.Run(method, func(t *testing.T) {
			tel := NewTelemetry()
			rt, err := NewRuntime(g, WithMethod(method), WithBatchSize(2), WithTelemetry(tel))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := rt.Run(buf)
			if err != nil {
				t.Fatal(err)
			}
			m := rep.Metrics()
			seen := make([]int, len(buf))
			isLane := make([]bool, len(buf))
			ran := 0
			for _, b := range m.Batches {
				keys := map[queries.Key]bool{}
				for _, qi := range b.Queries {
					keys[queries.KeyOf(buf[qi])] = true
					seen[qi]++
					isLane[qi] = true
				}
				ran += len(b.Queries)
				for _, qi := range b.Coalesced {
					if !keys[queries.KeyOf(buf[qi])] {
						t.Errorf("batch %d: coalesced %s shares no lane's key", b.Index, buf[qi])
					}
					seen[qi]++
				}
			}
			for qi, n := range seen {
				if n != 1 {
					t.Errorf("buffer index %d (%s) covered %d times", qi, buf[qi], n)
				}
			}
			if ran != lanes {
				t.Errorf("lanes = %d, want %d", ran, lanes)
			}
			// The policy ranked only the lanes; its decisions name them by
			// buffer index.
			for _, d := range m.Decisions {
				for _, qi := range d.Order {
					if !isLane[qi] {
						t.Errorf("decision order names buffer index %d, not a lane", qi)
					}
				}
			}
			if got := tel.Snapshot().Counters.Queries; got != lanes {
				t.Errorf("queries counter = %d, want %d lanes", got, lanes)
			}
			if err := rep.Verify(0); err != nil {
				t.Fatal(err)
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
