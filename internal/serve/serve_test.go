package serve

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/systems"
	"github.com/glign/glign/internal/telemetry"
)

// The end-to-end serve suite runs entirely on the fake clock: every
// rendezvous is a channel wait (ticket completion, gate-engine entry) —
// there is no time.Sleep anywhere, so the tests are deterministic under
// -race and arbitrary scheduling. An idle server flushes whatever is queued
// at once, so a test that needs queries to queue first holds the engine
// busy with a batch at the gate (hold).

// testGraph is the 9-vertex paper example — tiny, fixed, and connected
// enough for every kernel.
func testGraph() *graph.Graph { return graph.PaperExample() }

// startServer builds a server on the fake clock with test-friendly
// defaults, overridable via mutate.
func startServer(t *testing.T, clk Clock, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Method:        systems.LigraS,
		BatchSize:     4,
		QueueCapacity: 64,
		Workers:       2,
		Clock:         clk,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(testGraph(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// mustValues waits for a ticket and checks its result against the serial
// reference.
func mustValues(t *testing.T, g *graph.Graph, tk *Ticket) {
	t.Helper()
	vals, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatalf("ticket %v: %v", tk.Query(), err)
	}
	want := oracle.ReferenceRun(g, tk.Query())
	for v := range want {
		if vals[v] != want[v] {
			t.Fatalf("ticket %v: vertex %d = %v, want %v", tk.Query(), v, vals[v], want[v])
		}
	}
}

// gateEngine blocks every batch at entry until it receives a release token,
// reporting the batch's source vertices in execution order — the fixture
// that holds the engine busy and reads batch composition. Close release to
// let every remaining batch through.
type gateEngine struct {
	entered chan []graph.VertexID
	release chan struct{}
	inner   core.Engine
}

func newGateEngine() *gateEngine {
	return &gateEngine{
		entered: make(chan []graph.VertexID, 64),
		release: make(chan struct{}),
		inner:   core.LigraS,
	}
}

func (e *gateEngine) Name() string { return "gate" }

func (e *gateEngine) Run(g *graph.Graph, batch []queries.Query, opt core.Options) (*core.BatchResult, error) {
	srcs := make([]graph.VertexID, len(batch))
	for i, q := range batch {
		srcs[i] = q.Source
	}
	e.entered <- srcs
	<-e.release
	return e.inner.Run(g, batch, opt)
}

// hold submits q to a server with nothing queued and an idle engine and
// waits until q's batch, q alone, is inside the gate: the engine is busy,
// so what is submitted next queues behind it until the gate lets q go.
func hold(t *testing.T, s *Server, gate *gateEngine, q queries.Query) *Ticket {
	t.Helper()
	tk, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if srcs := <-gate.entered; len(srcs) != 1 || srcs[0] != q.Source {
		t.Fatalf("held batch = %v, want [%d]", srcs, q.Source)
	}
	return tk
}

// TestIdleServerFlushesAtOnce sends queries to an idle server one at a
// time: each completes with the clock standing still and far below the size
// cap, so the flush that served it can only be the idle one.
func TestIdleServerFlushesAtOnce(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	tel := telemetry.NewCollector()
	s := startServer(t, clk, func(c *Config) { c.Telemetry = tel })
	g := testGraph()

	for round := 0; round < 2; round++ {
		tk, err := s.Submit(context.Background(), queries.Query{Kernel: queries.SSSP, Source: graph.VertexID(round)})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		mustValues(t, g, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WindowFlushes != 2 || st.SizeFlushes != 0 || st.Batches != 2 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 2 idle flushes, 0 size flushes, 2 batches, 2 completed", st)
	}
	m := tel.Snapshot()
	if m.Serving == nil || m.Serving.Completed != 2 {
		t.Errorf("telemetry serving section = %+v, want completed=2", m.Serving)
	}
	if len(m.Runs) != 1 || len(m.Runs[0].Batches) != 2 {
		t.Errorf("run trace has %d runs, want 1 with 2 batches", len(m.Runs))
	}
}

// TestBusyExecutorFormsOneBatch holds a batch at the gate and submits k
// queries below the size cap: they wait out the busy engine, and when it
// returns they leave together as exactly one batch of k.
func TestBusyExecutorFormsOneBatch(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) { c.Engine = gate })
	g := testGraph()

	const k = 3
	tickets := []*Ticket{hold(t, s, gate, queries.Query{Kernel: queries.BFS, Source: 8})}
	for src := 0; src < k; src++ {
		tk, err := s.Submit(context.Background(), queries.Query{Kernel: queries.BFS, Source: graph.VertexID(src)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	gate.release <- struct{}{}
	if srcs := <-gate.entered; len(srcs) != k {
		t.Fatalf("batch after the busy engine = %v, want all %d queued queries", srcs, k)
	}
	gate.release <- struct{}{}
	for _, tk := range tickets {
		mustValues(t, g, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WindowFlushes != 2 || st.SizeFlushes != 0 || st.Batches != 2 {
		t.Errorf("stats = %+v, want 2 idle flushes and 2 batches", st)
	}
}

// TestSizeFlushFillsBatch proves the size cap: with a batch held at the
// gate, four queries fill the cap of 4, and when the engine returns they
// leave as one size batch.
func TestSizeFlushFillsBatch(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) { c.Engine = gate })
	g := testGraph()

	tickets := []*Ticket{hold(t, s, gate, queries.Query{Kernel: queries.BFS, Source: 8})}
	for i := 0; i < 4; i++ {
		tk, err := s.Submit(context.Background(), queries.Query{Kernel: queries.BFS, Source: graph.VertexID(i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	close(gate.release)
	for _, tk := range tickets {
		mustValues(t, g, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if srcs := <-gate.entered; len(srcs) != 4 {
		t.Errorf("size batch = %v, want 4 queries", srcs)
	}
	st := s.Stats()
	if st.SizeFlushes != 1 || st.WindowFlushes != 1 || st.Batches != 2 {
		t.Errorf("stats = %+v, want the held batch's idle flush, 1 size flush and 2 batches", st)
	}
}

// TestBackpressureRejectsAtCapacity fills the admission bound behind a
// gated engine and requires the typed ErrQueueFull, then releases the
// gate and requires every admitted query to complete.
func TestBackpressureRejectsAtCapacity(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 1
		c.QueueCapacity = 2
		c.Engine = gate
	})
	g := testGraph()
	ctx := context.Background()
	q := func(src int) queries.Query { return queries.Query{Kernel: queries.SSSP, Source: graph.VertexID(src)} }

	// q1 is taken off the queue and blocks inside the gate; q2 and q3 stay
	// queued behind the busy engine: the queue is at its capacity of 2.
	t1 := hold(t, s, gate, q(0))
	t2, err := s.Submit(ctx, q(1))
	if err != nil {
		t.Fatal(err)
	}
	t3, err := s.Submit(ctx, q(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ctx, q(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit at capacity: err = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.RejectedFull != 1 || st.QueueDepth != 2 {
		t.Errorf("stats = %+v, want rejected_full=1 queue_depth=2", st)
	}
	close(gate.release)
	for _, tk := range []*Ticket{t1, t2, t3} {
		mustValues(t, g, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Completed != 3 || st.QueueDepth != 0 {
		t.Errorf("stats after close = %+v, want completed=3 queue_depth=0", st)
	}
}

// TestDeadlineExpiryCancelsQueued submits a query behind a busy engine and
// moves the clock past its deadline before the engine returns: when the loop
// takes it, it must resolve it with ErrDeadline instead of executing it, and
// a later query must be unaffected.
func TestDeadlineExpiryCancelsQueued(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	tel := telemetry.NewCollector()
	s := startServer(t, clk, func(c *Config) {
		c.Telemetry = tel
		c.Engine = gate
	})
	g := testGraph()

	held := hold(t, s, gate, queries.Query{Kernel: queries.SSSP, Source: 8})
	t1, err := s.SubmitWith(context.Background(), queries.Query{Kernel: queries.SSSP, Source: 3}, SubmitOptions{Timeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Millisecond) // past t1's +10ms deadline
	close(gate.release)
	if _, err := t1.Wait(context.Background()); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired ticket: err = %v, want ErrDeadline", err)
	}
	// The expired flush formed no batch; a fresh query still serves.
	t2, err := s.SubmitWith(context.Background(), queries.Query{Kernel: queries.SSSP, Source: 4}, SubmitOptions{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	mustValues(t, g, held)
	mustValues(t, g, t2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DeadlineMisses != 1 || st.Completed != 2 || st.Batches != 2 {
		t.Errorf("stats = %+v, want deadline_misses=1 completed=2 batches=2", st)
	}
}

// TestFullBatchBehindBusyEngineExpires queues a full batch behind a held
// one and moves the clock past both deadlines while the engine runs: nothing
// is taken off the queue during a batch, so both queries are checked when the
// engine returns and neither runs.
func TestFullBatchBehindBusyEngineExpires(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 2
		c.Engine = gate
	})
	held := hold(t, s, gate, queries.Query{Kernel: queries.BFS, Source: 8})
	var late []*Ticket
	for src := 0; src < 2; src++ {
		tk, err := s.SubmitWith(context.Background(), queries.Query{Kernel: queries.BFS, Source: graph.VertexID(src)}, SubmitOptions{Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		late = append(late, tk)
	}
	clk.Advance(2 * time.Second)
	close(gate.release)
	for _, tk := range late {
		if _, err := tk.Wait(context.Background()); !errors.Is(err, ErrDeadline) {
			t.Fatalf("ticket %v: err = %v, want ErrDeadline", tk.Query(), err)
		}
	}
	mustValues(t, testGraph(), held)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DeadlineMisses != 2 || st.Batches != 1 {
		t.Errorf("stats = %+v, want deadline_misses=2 batches=1", st)
	}
}

// TestContextCancelWhileQueued cancels a queued query's context; when the
// loop takes it, it must resolve the ticket with the context error, not
// execute it.
func TestContextCancelWhileQueued(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) { c.Engine = gate })

	hold(t, s, gate, queries.Query{Kernel: queries.BFS, Source: 8})
	ctx, cancel := context.WithCancel(context.Background())
	tk, err := s.Submit(ctx, queries.Query{Kernel: queries.BFS, Source: 5})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(gate.release)
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ticket: err = %v, want context.Canceled", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Canceled != 1 || st.Batches != 1 {
		t.Errorf("stats = %+v, want canceled=1 and only the held batch", st)
	}
}

// TestShutdownDrainsAndRejects pins the drain contract: Shutdown
// immediately rejects new submissions with ErrClosed while the in-flight
// batch finishes first and every query already admitted — batched or still
// queued — is executed and answered. The batch geometry makes every
// interleaving produce the same three batches: [t1] is held in flight at
// the gate, [t2 t3] fills a size batch behind it, and t4 can only leave
// through the shutdown drain because the engine is busy until Shutdown.
func TestShutdownDrainsAndRejects(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 2
		c.QueueCapacity = 8
		c.Engine = gate
	})
	g := testGraph()
	ctx := context.Background()
	q := func(src int) queries.Query { return queries.Query{Kernel: queries.SSWP, Source: graph.VertexID(src)} }

	t1 := hold(t, s, gate, q(0))
	t2, err := s.Submit(ctx, q(1))
	if err != nil {
		t.Fatal(err)
	}
	t3, err := s.Submit(ctx, q(2))
	if err != nil {
		t.Fatal(err)
	}
	t4, err := s.Submit(ctx, q(3))
	if err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	if _, err := s.Submit(ctx, q(5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("late submit: err = %v, want ErrClosed", err)
	}
	close(gate.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Drain order: the size batch behind the in-flight one, then t4's
	// drain batch.
	if srcs := <-gate.entered; len(srcs) != 2 {
		t.Errorf("second batch = %v, want size 2", srcs)
	}
	if srcs := <-gate.entered; len(srcs) != 1 {
		t.Errorf("drain batch = %v, want size 1", srcs)
	}
	for _, tk := range []*Ticket{t1, t2, t3, t4} {
		mustValues(t, g, tk)
	}
	st := s.Stats()
	if st.RejectedClosed != 1 || st.Completed != 4 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v, want rejected_closed=1 completed=4 queue_depth=0", st)
	}
	if st.DrainFlushes != 1 {
		t.Errorf("stats = %+v, want exactly 1 drain flush", st)
	}
}

// TestServeAffinityMethod runs the full Glign method (affinity policy +
// aligned engine) through the serving loop and verifies exact results — the
// policy and alignment plumbing must be identical to the offline path.
func TestServeAffinityMethod(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	s := startServer(t, clk, func(c *Config) {
		c.Method = systems.Glign
		c.BatchSize = 4
	})
	g := testGraph()

	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := s.Submit(context.Background(), queries.Query{Kernel: queries.SSSP, Source: graph.VertexID(2 * i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		mustValues(t, g, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitValidation covers the immediate typed failures.
func TestSubmitValidation(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	s := startServer(t, clk, nil)
	defer s.Close()

	if _, err := s.Submit(context.Background(), queries.Query{Source: 0}); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := s.Submit(context.Background(), queries.Query{Kernel: queries.BFS, Source: 10_000}); err == nil {
		t.Error("out-of-range source accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, queries.Query{Kernel: queries.BFS, Source: 0}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestCloseIdempotent closes twice and submits after; both must be safe.
func TestCloseIdempotent(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	s := startServer(t, clk, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), queries.Query{Kernel: queries.BFS, Source: 0}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
}

// leakCheck records the goroutine count, with the default pool's workers
// already running, and returns a func that fails t unless the count is back
// at or below it within 2 s, dumping every goroutine's stack if not.
func leakCheck(t *testing.T) func() {
	t.Helper()
	par.Default()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines after the run, %d before:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// TestServerCloseJoinsGoroutines holds the server's goroutine lifetime: New
// launches the serving loop, and Close joins it after draining everything
// admitted. Behind a held batch, six queries against a size cap
// of 4 leave two queued, and Shutdown comes before the engine is free, so
// Close's drain flushes them.
func TestServerCloseJoinsGoroutines(t *testing.T) {
	noLeak := leakCheck(t)
	gate := newGateEngine()
	s := startServer(t, NewFakeClock(time.Unix(0, 0)), func(c *Config) { c.Engine = gate })
	tickets := []*Ticket{hold(t, s, gate, queries.Query{Kernel: queries.BFS, Source: 8})}
	for src := 0; src < 6; src++ {
		tk, err := s.Submit(context.Background(), queries.Query{Kernel: queries.BFS, Source: graph.VertexID(src)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	s.Shutdown()
	close(gate.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		mustValues(t, testGraph(), tk)
	}
	if st := s.Stats(); st.DrainFlushes != 1 || st.Completed != 7 {
		t.Errorf("stats = %+v, want 1 drain flush and 7 completed", st)
	}
	noLeak()
}
