package serve

import (
	"context"
	"testing"
	"time"

	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/queries"
)

// TestServeConvergenceAndKHopEndToEnd drives the new kernel paradigms
// through the live serving loop on the fake clock: a mixed buffer of
// PageRank, LabelProp, and bounded-reachability (KHOP) queries must split
// into paradigm-homogeneous engine batches at flush, every served vector
// must match the independent serial golden and pass the kernel's oracle
// invariants, a replayed stream must be answered from the result cache
// without re-execution, and a BumpEpoch must force recomputation at the new
// epoch. No wall-clock sleeps anywhere — a batch held at the gate makes the
// queries queue, so every flush is deterministic.
func TestServeConvergenceAndKHopEndToEnd(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gate := newGateEngine()
	s := startServer(t, clk, func(c *Config) { c.Engine = gate })
	g := testGraph()
	ctx := context.Background()

	// mustGolden is the convergence-aware counterpart of mustValues:
	// oracle.ReferenceRun has no Jacobi path, so the golden comes from
	// oracle.GoldenValues, and the oracle invariants run on every served vector.
	mustGolden := func(tk *Ticket) []queries.Value {
		t.Helper()
		vals, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("ticket %v: %v", tk.Query(), err)
		}
		want := oracle.GoldenValues(g, tk.Query())
		for v := range want {
			if vals[v] != want[v] {
				t.Fatalf("ticket %v: vertex %d = %v, golden %v", tk.Query(), v, vals[v], want[v])
			}
		}
		if vio := oracle.CheckResult(g, tk.Query(), vals); len(vio) != 0 {
			t.Fatalf("ticket %v violates oracle invariants: %+v", tk.Query(), vio)
		}
		return vals
	}

	// Phase 1 — computed: behind a held batch, four queries interleaving
	// both paradigms fill the size-4 queue, and the flush must split them
	// into one monotone and one convergence engine batch.
	buffer := []queries.Query{
		{Kernel: queries.PageRank, Source: 0},
		{Kernel: queries.KHop(2), Source: 1},
		{Kernel: queries.LabelProp, Source: 3},
		{Kernel: queries.KHop(2), Source: 4},
	}
	submit := func() []*Ticket {
		t.Helper()
		tks := make([]*Ticket, len(buffer))
		for i, q := range buffer {
			tk, err := s.Submit(ctx, q)
			if err != nil {
				t.Fatalf("submit %v: %v", q, err)
			}
			tks[i] = tk
		}
		return tks
	}
	hold(t, s, gate, queries.Query{Kernel: queries.BFS, Source: 8})
	pass1 := submit()
	close(gate.release)
	computed := make([][]queries.Value, len(pass1))
	for i, tk := range pass1 {
		computed[i] = mustGolden(tk)
		if e := tk.ResultEpoch(); e != 0 {
			t.Fatalf("phase 1 ticket %d epoch = %d, want 0", i, e)
		}
	}
	st := s.Stats()
	if st.SizeFlushes != 1 || st.Batches != 3 {
		t.Fatalf("phase 1 stats = %+v, want the held batch and 1 size flush split into 2 paradigm-homogeneous batches", st)
	}

	// Phase 2 — cached replay: the identical stream is served from the
	// result cache byte-for-byte, with zero additional engine batches.
	pass2 := submit()
	for i, tk := range pass2 {
		vals := mustGolden(tk)
		for v := range vals {
			if vals[v] != computed[i][v] {
				t.Fatalf("cached ticket %d differs from computed at vertex %d", i, v)
			}
		}
	}
	st = s.Stats()
	if st.Batches != 3 || st.CacheHits != int64(len(buffer)) {
		t.Fatalf("phase 2 stats = %+v, want batches still 3 and %d cache hits", st, len(buffer))
	}

	// Phase 3 — invalidation: after a BumpEpoch the cached entries are
	// stale, so a replayed pair (one per paradigm) recomputes at epoch 1.
	// Two queries cannot hit the size cap; the idle engine takes them, in one
	// flush or two, and either way as one batch per paradigm.
	if e := s.BumpEpoch(); e != 1 {
		t.Fatalf("BumpEpoch = %d, want 1", e)
	}
	stale := []queries.Query{buffer[0], buffer[1]}
	tks := make([]*Ticket, len(stale))
	for i, q := range stale {
		tk, err := s.Submit(ctx, q)
		if err != nil {
			t.Fatalf("post-bump submit %v: %v", q, err)
		}
		tks[i] = tk
	}
	for i, tk := range tks {
		mustGolden(tk)
		if e := tk.ResultEpoch(); e != 1 {
			t.Fatalf("post-bump ticket %d epoch = %d, want 1", i, e)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Batches != 5 {
		t.Fatalf("phase 3 stats = %+v, want 5 total batches (bump recomputed both paradigms)", st)
	}
}
