package serve

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/engine"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/systems"
	"github.com/glign/glign/internal/telemetry"
)

// The end-to-end serve suite runs entirely on the fake clock: every
// rendezvous is a channel wait (ticket completion, gate-engine entry) or a
// FakeClock.BlockUntil handshake — there is no time.Sleep anywhere, so the
// tests are deterministic under -race and arbitrary scheduling.

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
		Window:        50 * time.Millisecond,
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
	want := engine.ReferenceRun(g, tk.Query())
	for v := range want {
		if vals[v] != want[v] {
			t.Fatalf("ticket %v: vertex %d = %v, want %v", tk.Query(), v, vals[v], want[v])
		}
	}
}

// gateEngine blocks every batch at entry until released, making executor
// occupancy a deterministic test fixture. entered receives each batch's
// size at entry, in execution order.
type gateEngine struct {
	entered chan int
	release chan struct{}
	inner   core.Engine
}

func newGateEngine() *gateEngine {
	return &gateEngine{
		entered: make(chan int, 64),
		release: make(chan struct{}),
		inner:   core.LigraS,
	}
}

func (e *gateEngine) Name() string { return "gate" }

func (e *gateEngine) Run(g *graph.Graph, batch []queries.Query, opt core.Options) (*core.BatchResult, error) {
	e.entered <- len(batch)
	<-e.release
	return e.inner.Run(g, batch, opt)
}

// TestWindowFlushOnTimer drives two window rounds: a partial buffer must
// flush when the window timer fires (never on its own), and the timer must
// re-arm for the next round.
func TestWindowFlushOnTimer(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	tel := telemetry.NewCollector()
	s := startServer(t, clk, func(c *Config) { c.Telemetry = tel })
	g := testGraph()

	for round := 0; round < 2; round++ {
		tk, err := s.Submit(context.Background(), queries.Query{Kernel: queries.SSSP, Source: graph.VertexID(round)})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// The window timer arms only once the batcher has buffered the
		// query; one query cannot hit the size cap of 4, so the flush that
		// completes the ticket can only be the timer's.
		clk.BlockUntil(1)
		select {
		case <-tk.Done():
			t.Fatalf("round %d: ticket completed before the window expired", round)
		default:
		}
		clk.Advance(50 * time.Millisecond)
		mustValues(t, g, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WindowFlushes != 2 || st.SizeFlushes != 0 || st.Batches != 2 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 2 window flushes, 0 size flushes, 2 batches, 2 completed", st)
	}
	m := tel.Snapshot()
	if m.Serving == nil || m.Serving.Completed != 2 {
		t.Errorf("telemetry serving section = %+v, want completed=2", m.Serving)
	}
	if len(m.Runs) != 1 || len(m.Runs[0].Batches) != 2 {
		t.Errorf("run trace has %d runs, want 1 with 2 batches", len(m.Runs))
	}
}

// TestSizeFlushFillsBatch proves the size cap flushes without any clock
// movement: time never advances, so a completed ticket can only mean the
// size trigger fired.
func TestSizeFlushFillsBatch(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	s := startServer(t, clk, nil)
	g := testGraph()

	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := s.Submit(context.Background(), queries.Query{Kernel: queries.BFS, Source: graph.VertexID(i)})
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
	st := s.Stats()
	if st.SizeFlushes != 1 || st.WindowFlushes != 0 || st.Batches != 1 {
		t.Errorf("stats = %+v, want exactly 1 size flush and 1 batch", st)
	}
}

// TestBackpressureRejectsAtCapacity fills the admission bound behind a
// gated executor and requires the typed ErrQueueFull, then releases the
// gate and requires every admitted query to complete.
func TestBackpressureRejectsAtCapacity(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 1
		c.QueueCapacity = 2
		c.Window = time.Hour
		c.Engine = gate
	})
	g := testGraph()
	ctx := context.Background()
	q := func(src int) queries.Query { return queries.Query{Kernel: queries.SSSP, Source: graph.VertexID(src)} }

	// q1 dispatches to the executor and blocks inside the gate; once the
	// entry is observed, q1 has left the admission population.
	t1, err := s.Submit(ctx, q(0))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	// q2's batch blocks in handoff (the executor is busy), q3 queues:
	// admission population is 2 = capacity, wherever the batcher happens to
	// be holding them.
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

// TestDeadlineExpiryCancelsQueued submits a query whose deadline falls
// inside the batching window: the window flush must resolve it with
// ErrDeadline instead of executing it, and a later query must be unaffected.
func TestDeadlineExpiryCancelsQueued(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	tel := telemetry.NewCollector()
	s := startServer(t, clk, func(c *Config) { c.Telemetry = tel })
	g := testGraph()

	t1, err := s.SubmitTimeout(context.Background(), queries.Query{Kernel: queries.SSSP, Source: 3}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	clk.BlockUntil(1)
	clk.Advance(50 * time.Millisecond) // window fires at +50ms > +10ms deadline
	if _, err := t1.Wait(context.Background()); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired ticket: err = %v, want ErrDeadline", err)
	}
	// The expired flush formed no batch; a fresh query still serves.
	t2, err := s.SubmitTimeout(context.Background(), queries.Query{Kernel: queries.SSSP, Source: 4}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	clk.BlockUntil(1)
	clk.Advance(50 * time.Millisecond)
	mustValues(t, g, t2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DeadlineMisses != 1 || st.Completed != 1 || st.Batches != 1 {
		t.Errorf("stats = %+v, want deadline_misses=1 completed=1 batches=1", st)
	}
}

// TestContextCancelWhileQueued cancels a queued query's context; the next
// flush must resolve the ticket with the context error, not execute it.
func TestContextCancelWhileQueued(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	s := startServer(t, clk, nil)

	ctx, cancel := context.WithCancel(context.Background())
	tk, err := s.Submit(ctx, queries.Query{Kernel: queries.BFS, Source: 5})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	clk.BlockUntil(1)
	clk.Advance(50 * time.Millisecond)
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ticket: err = %v, want context.Canceled", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Canceled != 1 || st.Batches != 0 {
		t.Errorf("stats = %+v, want canceled=1 batches=0", st)
	}
}

// TestShutdownDrainsAndRejects pins the drain contract: Shutdown
// immediately rejects new submissions with ErrClosed while the in-flight
// batch finishes first and every query already admitted — batched or still
// queued — is executed and answered. The batch geometry makes every
// interleaving produce the same three batches: [t1 t2] enters the gate and
// is held in flight, [t3 t4] fills a size batch behind it, and t5 can only
// leave through the shutdown drain because the window timer never fires.
func TestShutdownDrainsAndRejects(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) {
		c.BatchSize = 2
		c.QueueCapacity = 8
		c.Window = time.Hour
		c.Engine = gate
	})
	g := testGraph()
	ctx := context.Background()
	q := func(src int) queries.Query { return queries.Query{Kernel: queries.SSWP, Source: graph.VertexID(src)} }

	t1, err := s.Submit(ctx, q(0))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Submit(ctx, q(1))
	if err != nil {
		t.Fatal(err)
	}
	if n := <-gate.entered; n != 2 {
		t.Fatalf("first batch size %d, want 2", n)
	}
	// [t1 t2] is in flight inside the gate. [t3 t4] forms the next size
	// batch and t5 stays admitted-but-unbatched until the drain.
	t3, err := s.Submit(ctx, q(2))
	if err != nil {
		t.Fatal(err)
	}
	t4, err := s.Submit(ctx, q(3))
	if err != nil {
		t.Fatal(err)
	}
	t5, err := s.Submit(ctx, q(4))
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
	// Drain order: the size batch behind the in-flight one, then t5's
	// drain batch.
	if n := <-gate.entered; n != 2 {
		t.Errorf("second batch size %d, want 2", n)
	}
	if n := <-gate.entered; n != 1 {
		t.Errorf("drain batch size %d, want 1", n)
	}
	for _, tk := range []*Ticket{t1, t2, t3, t4, t5} {
		mustValues(t, g, tk)
	}
	st := s.Stats()
	if st.RejectedClosed != 1 || st.Completed != 5 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v, want rejected_closed=1 completed=5 queue_depth=0", st)
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
// launches the batcher and the executor, and Close joins both after draining
// everything admitted. Six queries against a size cap of 4 and a window that
// never fires leave two queued until Close's drain flushes them.
func TestServerCloseJoinsGoroutines(t *testing.T) {
	noLeak := leakCheck(t)
	s := startServer(t, NewFakeClock(time.Unix(0, 0)), func(c *Config) { c.Window = time.Hour })
	var tickets []*Ticket
	for src := 0; src < 6; src++ {
		tk, err := s.Submit(context.Background(), queries.Query{Kernel: queries.BFS, Source: graph.VertexID(src)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		mustValues(t, testGraph(), tk)
	}
	if st := s.Stats(); st.DrainFlushes != 1 || st.Completed != 6 {
		t.Errorf("stats = %+v, want 1 drain flush and 6 completed", st)
	}
	noLeak()
}
