package glign

import (
	"runtime"
	"sync"
	"testing"
)

// TestRuntimeConcurrentRuns calls Run from several goroutines on a fresh
// Runtime: they meet in the lazily built profile and share the batch arena,
// and each must still return exactly the oracle's answers. verify.sh runs it
// under -race (where the unsynchronized lazy init this replaced showed up
// about one run in five: the pool's own locking orders most interleavings).
func TestRuntimeConcurrentRuns(t *testing.T) {
	g, err := Generate("LJ", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := KernelByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(g, WithBatchSize(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	buffers := [4][]Query{}
	for i, src := range SampleSources(g, 6*len(buffers), 5) {
		k := []Kernel{SSSP, BFS, pr}[i%3]
		buffers[i%len(buffers)] = append(buffers[i%len(buffers)], Query{Kernel: k, Source: src})
	}
	var wg sync.WaitGroup
	start := make(chan struct{}) // all reach Profile's first call together
	for _, buf := range buffers {
		wg.Add(1)
		go func(buf []Query) {
			defer wg.Done()
			<-start
			for rep := 0; rep < 2; rep++ {
				r, err := rt.Run(buf)
				if err != nil {
					t.Error(err)
					return
				}
				if err := r.Verify(0); err != nil {
					t.Error(err)
				}
			}
		}(buf)
	}
	close(start)
	wg.Wait()
}

// TestWarmedRunAllocatesOnlyResults bounds what one Run of a warmed Runtime
// allocates: the result vectors of its Report (|buffer|·n values) plus 15 %.
// The batch value array, the Jacobi slabs and geometry (a graph reversal), the
// changed-lane mask and the push workers' frontier accumulators come from the
// runtime's arena, so a convergence
// buffer's surplus also stays under one value array (n·B values), at the
// serving path's narrow widths too. What a
// batch still makes for itself — its frontier pair and their member lists,
// some 20 bytes a vertex — is why the monotone leg is as wide as the
// benchmark's batches: against a row of 64 values that is 4 %.
func TestWarmedRunAllocatesOnlyResults(t *testing.T) {
	g, err := Generate("LJ", "small")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := KernelByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(g.NumVertices())
	for _, leg := range []struct {
		name              string
		kernel            Kernel
		batchSize, buffer int
	}{{"SSSP", SSSP, 64, 128}, {"PageRank", pr, 16, 32}, {"PageRank-B3", pr, 3, 12}} {
		k, batchSize := leg.kernel, uint64(leg.batchSize)
		t.Run(leg.name, func(t *testing.T) {
			rt, err := NewRuntime(g, WithBatchSize(leg.batchSize), WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			var buf []Query
			for _, src := range SampleSources(g, leg.buffer, 9) {
				buf = append(buf, Query{Kernel: k, Source: src})
			}
			rep, got, _ := warmedRun(t, rt, buf)
			results := uint64(rep.NumQueries()) * n * 8
			if limit := results + results*15/100; got > limit {
				t.Errorf("a warmed Run allocated %d bytes, over the %d of its result vectors plus 15%% (%d)", got, results, limit)
			}
			if array := n * batchSize * 8; got >= results+array {
				t.Errorf("a warmed Run allocated %d bytes beyond its result vectors, a batch value array (%d) or more", got-results, array)
			}
		})
	}
}

// TestWarmedRunMallocsPerIteration bounds the heap objects a warmed Run
// makes per global iteration, so an allocation repeated every iteration of
// the traversal loop fails here however it is spelt: a make in a policy's
// chunk body, a slice in the driver's loop, a method value taken in Step.
// Every road batch runs over a hundred thin iterations, so what a batch sets
// up once (its schedule, its result) comes to well under one object an
// iteration. What is left is the pool's dispatch: the job, its done channel
// and its cursors, three objects whenever an iteration's frontier spans more
// than one chunk (Drive hands its chunk closure to ForSlots as it is, and its
// policies keep a slot's state in slices made once a batch). The
// unified-frontier engines share one push body and take their frontier pair
// from the arena, member lists and all. The query-oblivious ones measure
// 3.16–3.39: their budget is 3.4, which a pair made new every batch breaks.
// Krill measures about 3.4 and Ligra-C about 4.0, whose 2B lane frontiers
// are made every batch; each budget is its measured figure plus 15 %, under
// the one more object an iteration that an allocation in the shared body or
// in a design's Advance would add. The PageRank leg holds the Jacobi round, which keeps a slot's scratch for
// the run: its buffer is one evaluation of some 34 rounds, whose setup and 32
// result vectors add about three objects a round to the dispatch's three, and
// it measures 6.3, under 6.8 — a round's one more object breaks it.
func TestWarmedRunMallocsPerIteration(t *testing.T) {
	g, err := Generate("RD-CA", "small")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := KernelByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name, method string
		kernel       Kernel
		budget       float64
	}{
		{MethodGlignIntra, MethodGlignIntra, BFS, 3.4},
		{MethodKrill, MethodKrill, BFS, 3.9},
		{MethodGlign, MethodGlign, BFS, 3.4},
		{MethodLigraC, MethodLigraC, BFS, 4.6},
		{"PageRank", MethodGlign, pr, 6.8},
	} {
		t.Run(leg.name, func(t *testing.T) {
			rt, err := NewRuntime(g, WithMethod(leg.method), WithBatchSize(16), WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			var buf []Query
			for _, src := range SampleSources(g, 32, 9) {
				buf = append(buf, Query{Kernel: leg.kernel, Source: src})
			}
			rep, _, mallocs := warmedRun(t, rt, buf)
			iters := rep.TotalIterations()
			if perIter := float64(mallocs) / float64(iters); perIter > leg.budget {
				t.Errorf("a warmed Run made %.2f heap objects an iteration over %d iterations, over its budget of %g",
					perIter, iters, leg.budget)
			}
		})
	}
}

// warmedRun runs buf on rt twice, the first time to warm its profile and its
// arena, and returns the second Run's report with the heap bytes and objects
// that Run allocated.
func warmedRun(t *testing.T, rt *Runtime, buf []Query) (rep *Report, bytes, objects uint64) {
	t.Helper()
	if _, err := rt.Run(buf); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := rt.Run(buf)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return rep, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}
