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
// The batch value array, the Jacobi slabs and geometry (a graph reversal) and
// the push state (the frontier pair, the lane masks and the push workers'
// frontier accumulators) come from the runtime's arena, so a convergence
// buffer's surplus also stays under one value array (n·B values), at the
// serving path's narrow widths too.
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
// than one chunk (drive hands its chunk closure to ForSlots as it is, and its
// policies keep a slot's state in slices made once a batch). Every frontier
// engine takes its push state from the arena, member lists and all: the
// unified frontier pair, and at Ligra-C and GraphM the 2B lane frontiers.
// The unified-frontier engines share one push body and measure 3.16–3.39:
// their budget is 3.4, which a pair made new every batch breaks. Krill's
// budget, 3.9, is what it measured plus 15 % when it was set. GraphM's stream
// measures 1.60, under its budget of 1.7. Each is under the one more object
// an iteration that an allocation in a body or in a design's Advance would
// add. The PageRank leg holds the Jacobi round, which keeps a slot's scratch
// for the run: its buffer is one evaluation of some 34 rounds, whose setup
// and 32 result vectors add about three objects a round to the dispatch's
// three, and it measures 6.3, under 6.8 — a round's one more object breaks
// it.
//
// The Glign-Intra and Glign legs are all-BFS batches, so they run on hop
// lanes, whose seen mask (a word a vertex, 96 KB here) and level row come
// from the arena too. Those legs, the Ligra-C and GraphM legs, and a leg of
// one-query batches — the serving shape, a batch of one per query — also
// hold the bytes a warmed Run allocates beyond its result vectors to a
// budget: measured plus 20–24 % (141–148 KB over two batches of 16 at
// Glign-Intra, Glign and Ligra-C, 89 KB at GraphM, 618 KB over 32 batches of
// one). A seen mask made every batch would add 192 KB and 3 MB, and lane
// frontiers made every batch about 100 KB at Ligra-C and 316 KB at GraphM.
// The batches of one make 2.03 objects an iteration, under their budget of
// 2.3.
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
		batchSize    int
		budget       float64
		bytes        uint64 // beyond the result vectors; 0: not held
	}{
		{MethodGlignIntra, MethodGlignIntra, BFS, 16, 3.4, 180 << 10},
		{MethodKrill, MethodKrill, BFS, 16, 3.9, 0},
		{MethodGlign, MethodGlign, BFS, 16, 3.4, 180 << 10},
		{MethodLigraC, MethodLigraC, BFS, 16, 3.4, 180 << 10},
		{MethodGraphM, MethodGraphM, BFS, 16, 1.7, 110 << 10},
		{"PageRank", MethodGlign, pr, 16, 6.8, 0},
		{"BFS-B1", MethodGlign, BFS, 1, 2.3, 740 << 10},
	} {
		t.Run(leg.name, func(t *testing.T) {
			rt, err := NewRuntime(g, WithMethod(leg.method), WithBatchSize(leg.batchSize), WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			var buf []Query
			for _, src := range SampleSources(g, 32, 9) {
				buf = append(buf, Query{Kernel: leg.kernel, Source: src})
			}
			rep, bytes, mallocs := warmedRun(t, rt, buf)
			iters := rep.TotalIterations()
			if perIter := float64(mallocs) / float64(iters); perIter > leg.budget {
				t.Errorf("a warmed Run made %.2f heap objects an iteration over %d iterations, over its budget of %g",
					perIter, iters, leg.budget)
			}
			results := uint64(rep.NumQueries()*g.NumVertices()) * 8
			if leg.bytes > 0 && bytes > results+leg.bytes {
				t.Errorf("a warmed Run allocated %d bytes beyond its %d of result vectors, over its budget of %d",
					bytes-results, results, leg.bytes)
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
