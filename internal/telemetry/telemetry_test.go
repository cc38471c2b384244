package telemetry

import (
	"encoding/json"
	"expvar"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/glign/glign/internal/par"
)

// TestNilSafety holds the nil-safe contract (OBSERVABILITY.md "Overhead"):
// every exported method of the three trace types, called on a nil receiver
// with zero-valued arguments, returns without panicking and yields only zero
// values. The methods are enumerated by reflection, so a new method without
// its nil guard, or with a value receiver, fails here.
func TestNilSafety(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*Collector)(nil)),
		reflect.TypeOf((*RunTrace)(nil)),
		reflect.TypeOf((*BatchTrace)(nil)),
	} {
		if typ.NumMethod() == 0 {
			t.Fatalf("%v has no exported methods", typ)
		}
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			args := []reflect.Value{reflect.Zero(typ)}
			for j := 1; j < m.Type.NumIn(); j++ {
				args = append(args, reflect.Zero(m.Type.In(j)))
			}
			if m.Type.IsVariadic() {
				args = args[:len(args)-1]
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("(%v).%s panics on a nil receiver: %v", typ, m.Name, p)
					}
				}()
				for k, out := range m.Func.Call(args) {
					if !out.IsZero() {
						t.Errorf("(%v).%s result %d on a nil receiver = %v, want the zero value", typ, m.Name, k, out)
					}
				}
			}()
		}
	}
}

// TestDisabledPathAllocs guards the "compiles to near-zero cost" claim: the
// nil-receiver hooks must not allocate, so the disabled path costs one
// predictable branch per iteration.
func TestDisabledPathAllocs(t *testing.T) {
	var b *BatchTrace
	stat := IterationStat{Iter: 3, FrontierSize: 100, EdgesProcessed: 5000}
	allocs := testing.AllocsPerRun(1000, func() {
		b.RecordIteration(stat)
	})
	if allocs != 0 {
		t.Fatalf("nil BatchTrace.RecordIteration allocates %.1f objects/op, want 0", allocs)
	}
}

func TestCollectorHierarchy(t *testing.T) {
	c := NewCollector()
	r := c.StartRun("Glign", "Affinity")
	r.RecordDecision(BatchingDecision{
		Policy: "Affinity", WindowStart: 0, WindowEnd: 4,
		Order: []int{2, 0, 3, 1}, Arrivals: []int{1, 1, 2, 3},
	})
	b0 := r.StartBatch("Glign-Intra", []int{2, 0}, []int{0, 1})
	b0.RecordIteration(IterationStat{
		Iter: 0, Query: -1, FrontierSize: 1, Mode: ModePush,
		ActiveQueries: 1, InjectedQueries: 1,
		EdgesProcessed: 10, LaneRelaxations: 10, ValueWrites: 4,
	})
	b0.RecordIteration(IterationStat{
		Iter: 1, Query: -1, FrontierSize: 4, Mode: ModePush,
		ActiveQueries: 2, InjectedQueries: 1,
		EdgesProcessed: 40, LaneRelaxations: 80, ValueWrites: 12,
	})
	b0.Finish(250 * time.Millisecond)
	b1 := r.StartBatch("Glign-Intra", []int{3, 1}, nil)
	b1.RecordIteration(IterationStat{
		Iter: 0, Query: -1, FrontierSize: 2, Mode: ModePush,
		ActiveQueries: 2, InjectedQueries: 2,
		EdgesProcessed: 7, LaneRelaxations: 14, ValueWrites: 3,
	})
	b1.Finish(100 * time.Millisecond)
	r.Finish(time.Second)

	m := c.Snapshot()
	if m.Schema != SchemaVersion {
		t.Errorf("schema = %q, want %q", m.Schema, SchemaVersion)
	}
	if got := m.Counters; got.Runs != 1 || got.Batches != 2 || got.Queries != 4 ||
		got.Iterations != 3 ||
		got.EdgesProcessed != 57 || got.LaneRelaxations != 104 || got.ValueWrites != 19 ||
		got.DelayedQueries != 1 || got.DelayOffsetSum != 1 || got.BatchingDecisions != 1 {
		t.Errorf("counters = %+v", got)
	}
	if len(m.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(m.Runs))
	}
	run := m.Runs[0]
	if run.Method != "Glign" || run.Policy != "Affinity" {
		t.Errorf("run identity = %q/%q", run.Method, run.Policy)
	}
	if run.DurationSeconds != 1.0 {
		t.Errorf("run duration = %v", run.DurationSeconds)
	}
	if len(run.Batches) != 2 || run.Batches[0].Index != 0 || run.Batches[1].Index != 1 {
		t.Fatalf("batches = %+v", run.Batches)
	}
	if got := run.Batches[0]; got.Engine != "Glign-Intra" ||
		len(got.Iterations) != 2 || got.Iterations[1].Mode != ModePush ||
		got.Alignment[1] != 1 || got.Queries[0] != 2 {
		t.Errorf("batch 0 = %+v", got)
	}
	if got, want := run.TotalIterations(), 3; got != want {
		t.Errorf("TotalIterations = %d, want %d", got, want)
	}
	if got, want := run.TotalEdgesProcessed(), int64(57); got != want {
		t.Errorf("TotalEdgesProcessed = %d, want %d", got, want)
	}
	if got, want := run.TotalLaneRelaxations(), int64(104); got != want {
		t.Errorf("TotalLaneRelaxations = %d, want %d", got, want)
	}
	if got, want := run.TotalValueWrites(), int64(19); got != want {
		t.Errorf("TotalValueWrites = %d, want %d", got, want)
	}
	if len(run.Decisions) != 1 || run.Decisions[0].Order[0] != 2 {
		t.Errorf("decisions = %+v", run.Decisions)
	}
}

// TestConcurrentRecording exercises the whole hierarchy from many
// goroutines at once; run under -race this is the layer's thread-safety
// proof (Congra records per-query iterations concurrently in production).
func TestConcurrentRecording(t *testing.T) {
	c := NewCollector()
	const (
		runs       = 4
		batches    = 3
		goroutines = 8
		iters      = 50
	)
	var wg sync.WaitGroup
	for ri := 0; ri < runs; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := c.StartRun("Glign", "FCFS")
			for bi := 0; bi < batches; bi++ {
				b := r.StartBatch("Glign-Intra", []int{0, 1, 2}, []int{0, 1, 2})
				var bwg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					bwg.Add(1)
					go func(g int) {
						defer bwg.Done()
						for i := 0; i < iters; i++ {
							b.RecordIteration(IterationStat{
								Iter: i, Query: g, FrontierSize: i,
								Mode: ModePush, EdgesProcessed: 2, LaneRelaxations: 3, ValueWrites: 1,
							})
						}
					}(g)
				}
				bwg.Wait()
				b.Finish(time.Millisecond)
			}
			r.RecordDecision(BatchingDecision{Policy: "FCFS"})
			r.Finish(time.Millisecond)
		}()
	}
	// Snapshot concurrently with the writers to prove it is safe mid-run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = c.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	total := int64(runs * batches * goroutines * iters)
	m := c.Snapshot()
	if m.Counters.Iterations != total {
		t.Errorf("iterations = %d, want %d", m.Counters.Iterations, total)
	}
	if m.Counters.EdgesProcessed != 2*total {
		t.Errorf("edges = %d, want %d", m.Counters.EdgesProcessed, 2*total)
	}
	if m.Counters.LaneRelaxations != 3*total {
		t.Errorf("relaxations = %d, want %d", m.Counters.LaneRelaxations, 3*total)
	}
	if m.Counters.Runs != runs || m.Counters.Batches != runs*batches {
		t.Errorf("runs/batches = %d/%d", m.Counters.Runs, m.Counters.Batches)
	}
	var rec int64
	for _, r := range m.Runs {
		rec += int64(r.TotalIterations())
	}
	if rec != total {
		t.Errorf("recorded iteration stats = %d, want %d", rec, total)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 0, 1, 2, 3, 4, 7, 8, 1 << 40, -5} {
		h.Observe(v)
	}
	buckets := h.Snapshot()
	byLo := map[int64]int64{}
	var total int64
	for _, b := range buckets {
		byLo[b.Lo] = b.Count
		total += b.Count
		if b.Lo > b.Hi {
			t.Errorf("bucket lo %d > hi %d", b.Lo, b.Hi)
		}
	}
	if total != 10 {
		t.Fatalf("total observations = %d, want 10", total)
	}
	// 0 and -5 land in [0,0]; 1 in [1,1]; 2,3 in [2,3]; 4,7 in [4,7]; 8 in
	// [8,15]; 1<<40 in [1<<40, 1<<41-1].
	want := map[int64]int64{0: 3, 1: 1, 2: 2, 4: 2, 8: 1, 1 << 40: 1}
	for lo, n := range want {
		if byLo[lo] != n {
			t.Errorf("bucket lo=%d count = %d, want %d", lo, byLo[lo], n)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	c := NewCollector()
	r := c.StartRun("Ligra-C", "FCFS")
	b := r.StartBatch("Ligra-C", []int{0}, nil)
	b.RecordIteration(IterationStat{Iter: 0, Query: -1, FrontierSize: 1,
		Mode: ModePush, ActiveQueries: 1, EdgesProcessed: 3, LaneRelaxations: 3, ValueWrites: 2})
	b.Finish(time.Millisecond)
	r.Finish(time.Millisecond)

	raw, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Schema != SchemaVersion || len(back.Runs) != 1 ||
		len(back.Runs[0].Batches) != 1 ||
		back.Runs[0].Batches[0].Iterations[0].EdgesProcessed != 3 {
		t.Errorf("round-tripped metrics = %s", raw)
	}
	for _, key := range []string{"frontier_size", "edges_per_iteration", "value_writes", "duration_seconds"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON missing %q: %s", key, raw)
		}
	}
}

func TestPublishRebind(t *testing.T) {
	c1 := NewCollector()
	c1.StartRun("Glign", "FCFS").Finish(time.Millisecond)
	Publish("telemetry_test", c1)
	v := expvar.Get("telemetry_test_counters")
	if v == nil {
		t.Fatal("counters var not published")
	}
	if !strings.Contains(v.String(), `"runs":1`) {
		t.Errorf("counters = %s", v.String())
	}
	// Re-publishing must rebind, not panic.
	c2 := NewCollector()
	Publish("telemetry_test", c2)
	if !strings.Contains(expvar.Get("telemetry_test_counters").String(), `"runs":0`) {
		t.Errorf("rebind failed: %s", expvar.Get("telemetry_test_counters").String())
	}
	if m := expvar.Get("telemetry_test_metrics"); m == nil || !json.Valid([]byte(m.String())) {
		t.Errorf("metrics var invalid: %v", m)
	}
}

func TestObservePoolPopulatesScheduler(t *testing.T) {
	c := NewCollector()
	if s := c.Snapshot(); s.Scheduler != nil {
		t.Fatalf("scheduler section before any observation = %+v, want nil", s.Scheduler)
	}
	p := par.NewPool(2)
	defer p.Close()
	var hit [1 << 12]int64
	p.For(len(hit), 2, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hit[i]++
		}
	})
	c.ObservePool(p)
	s := c.Snapshot()
	if s.Scheduler == nil {
		t.Fatal("scheduler section missing after ObservePool")
	}
	if s.Scheduler.Workers != 2 {
		t.Errorf("workers = %d, want 2", s.Scheduler.Workers)
	}
	if s.Scheduler.Jobs < 1 || s.Scheduler.Chunks < 1 {
		t.Errorf("jobs = %d chunks = %d, want both >= 1", s.Scheduler.Jobs, s.Scheduler.Chunks)
	}
	var total int64
	for _, n := range s.Scheduler.ChunksPerWorker {
		total += n
	}
	if total != s.Scheduler.Chunks {
		t.Errorf("chunks_per_worker sums to %d, want %d", total, s.Scheduler.Chunks)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"scheduler"`) {
		t.Errorf("JSON missing scheduler section: %s", raw)
	}
	// Nil-safety on both sides of the call.
	var nilc *Collector
	nilc.ObservePool(p)
	c.ObservePool(nil)
}

func TestObserveServingPopulatesSection(t *testing.T) {
	c := NewCollector()
	if s := c.Snapshot(); s.Serving != nil {
		t.Fatalf("serving section before any observation = %+v, want nil", s.Serving)
	}
	c.ObserveServing(&ServingMetrics{Submitted: 5, Admitted: 4, Batches: 2})
	// Last observation wins: the server republishes its full totals on
	// every batch completion.
	c.ObserveServing(&ServingMetrics{Submitted: 7, Admitted: 6, Batches: 3, QueueDepth: 1})
	s := c.Snapshot()
	if s.Serving == nil {
		t.Fatal("serving section missing after ObserveServing")
	}
	if s.Serving.Submitted != 7 || s.Serving.Batches != 3 || s.Serving.QueueDepth != 1 {
		t.Errorf("serving = %+v, want the last observation", s.Serving)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"serving"`) {
		t.Errorf("JSON missing serving section: %s", raw)
	}
	// Nil-safety on both sides of the call.
	var nilc *Collector
	nilc.ObserveServing(&ServingMetrics{})
	c.ObserveServing(nil)
	if got := c.Snapshot().Serving.Submitted; got != 7 {
		t.Errorf("nil observation overwrote the section: submitted = %d", got)
	}
}

func TestServingSectionTrafficFieldsRoundTrip(t *testing.T) {
	// The PR-6 traffic-shaping fields are additive to glign.telemetry/v1:
	// they must survive a JSON round-trip under their documented names and
	// leave the schema version untouched.
	c := NewCollector()
	c.ObserveServing(&ServingMetrics{
		Submitted:          10,
		Epoch:              3,
		CacheHits:          4,
		CacheMisses:        6,
		CacheEvictions:     1,
		CacheInvalidations: 2,
		CacheSize:          5,
		DedupCoalesced:     2,
		AdmissionReorders:  7,
		Shed:               1,
		ShedByTier:         []int64{1, 0, 0},
	})
	raw, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"epoch":3`, `"cache_hits":4`, `"cache_misses":6`, `"cache_evictions":1`,
		`"cache_invalidations":2`, `"cache_size":5`, `"dedup_coalesced":2`,
		`"admission_reorders":7`, `"shed":1`, `"shed_by_tier":[1,0,0]`,
		`"schema":"glign.telemetry/v1"`,
	} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("snapshot JSON missing %s: %s", field, raw)
		}
	}
	var back Metrics
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	sm := back.Serving
	if sm == nil || sm.CacheHits != 4 || sm.DedupCoalesced != 2 || sm.Epoch != 3 ||
		len(sm.ShedByTier) != 3 || sm.ShedByTier[0] != 1 {
		t.Errorf("round-tripped serving section = %+v", sm)
	}
}

// TestCoalescedAndRemappedDecisions: a batch's coalesced indices reach its
// snapshot under "coalesced" (omitted when there are none), and
// RemapDecisions turns a decision's positions among the ranked queries into
// buffer indices, window bounds included, leaving earlier snapshots as they
// were. Both are no-ops on nil.
func TestCoalescedAndRemappedDecisions(t *testing.T) {
	var nilRun *RunTrace
	nilRun.RemapDecisions([]int{0})
	var nilBatch *BatchTrace
	nilBatch.Coalesce([]int{1})

	r := NewCollector().StartRun("Glign", "Affinity")
	r.RecordDecision(BatchingDecision{Policy: "Affinity", WindowStart: 1, WindowEnd: 3, Order: []int{2, 1}})
	before := r.Snapshot()
	r.RemapDecisions([]int{0, 4, 6, 9})
	if d := before.Decisions[0]; d.WindowStart != 1 || d.Order[0] != 2 {
		t.Errorf("snapshot taken before the remap changed: %+v", d)
	}
	b := r.StartBatch("Glign-Intra", []int{6, 4}, nil)
	b.Coalesce([]int{7, 8})
	b.Coalesce([]int{5})
	r.StartBatch("Glign-Intra", []int{0}, nil)

	m := r.Snapshot()
	if d := m.Decisions[0]; d.WindowStart != 4 || d.WindowEnd != 7 || d.Order[0] != 6 || d.Order[1] != 4 {
		t.Errorf("remapped decision = %+v, want window [4,7) order [6 4]", d)
	}
	if got := m.Batches[0].Coalesced; len(got) != 3 || got[0] != 7 || got[2] != 5 {
		t.Errorf("coalesced = %v, want [7 8 5]", got)
	}
	js, err := json.Marshal(m.Batches)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(js), `"coalesced"`); n != 1 {
		t.Errorf("%d batches carry a coalesced key, want 1: %s", n, js)
	}
}
