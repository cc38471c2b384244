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
// the changed-lane mask come from the runtime's arena, so a convergence
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
			if _, err := rt.Run(buf); err != nil { // warms the profile and the arena
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
			results := uint64(rep.NumQueries()) * n * 8
			got := after.TotalAlloc - before.TotalAlloc
			if limit := results + results*15/100; got > limit {
				t.Errorf("a warmed Run allocated %d bytes, over the %d of its result vectors plus 15%% (%d)", got, results, limit)
			}
			if array := n * batchSize * 8; got >= results+array {
				t.Errorf("a warmed Run allocated %d bytes beyond its result vectors, a batch value array (%d) or more", got-results, array)
			}
		})
	}
}
