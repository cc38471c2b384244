package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/queries"
)

// TestRowLayoutBijection pins the one layout: for every batch width, Cell
// maps (vertex, lane) one-to-one onto [0, n*B) — rows of exactly B cells, no
// padding, no overlap — with a vertex's lanes adjacent.
func TestRowLayoutBijection(t *testing.T) {
	const n = 37
	for _, b := range []int{1, 3, 8, 64, 65} {
		seen := make([]bool, n*b)
		for v := 0; v < n; v++ {
			for i := 0; i < b; i++ {
				c := Cell(v, b, i)
				if c < 0 || c >= n*b || seen[c] {
					t.Fatalf("B=%d: Cell(%d, %d) = %d is out of [0, %d) or already taken", b, v, i, c, n*b)
				}
				seen[c] = true
				if c != Cell(v, b, 0)+i {
					t.Fatalf("B=%d: Cell(%d, %d) = %d is not offset %d of the row at %d", b, v, i, c, i, Cell(v, b, 0))
				}
			}
		}
		st := &batchSetup{B: b, N: n}
		if st.Cell(n-1, b-1) != n*b-1 {
			t.Fatalf("B=%d: batchSetup.Cell disagrees with Cell", b)
		}
	}
}

// referenceValues evaluates every query of the batch independently with the
// serial textbook evaluator — the layout-free reference of the tests below.
func referenceValues(g *graph.Graph, batch []queries.Query) [][]queries.Value {
	out := make([][]queries.Value, len(batch))
	for i, q := range batch {
		out[i] = oracle.ReferenceRun(g, q)
	}
	return out
}

// TestLayoutEquivalenceAcrossEngines pins every concurrent engine's value
// array bitwise to a reference that never touches it: per-lane
// oracle.ReferenceRun for monotone batches, the oracle's serial Jacobi for
// iterate-to-convergence ones.
func TestLayoutEquivalenceAcrossEngines(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	monotone := []queries.Query{
		{Kernel: queries.SSSP, Source: 1},
		{Kernel: queries.BFS, Source: 3},
		{Kernel: queries.SSWP, Source: 5},
		{Kernel: queries.SSNP, Source: 7},
	}
	pr, err := queries.ByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	convergent := []queries.Query{
		{Kernel: pr, Source: 0},
		{Kernel: pr, Source: 2},
	}

	convRef := make([][]queries.Value, len(convergent))
	for i, q := range convergent {
		convRef[i] = oracle.GoldenValues(g, q)
	}
	cases := map[string]struct {
		batch []queries.Query
		ref   [][]queries.Value
	}{
		"monotone":    {monotone, referenceValues(g, monotone)},
		"convergence": {convergent, convRef},
	}
	for _, e := range []Engine{GlignIntra, LigraC, Krill, LigraS} {
		for name, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", e.Name(), name), func(t *testing.T) {
				got, err := e.Run(g, tc.batch, Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				for qi := range tc.batch {
					for v, gv := range got.QueryValues(qi) {
						if gv != tc.ref[qi][v] {
							t.Fatalf("query %d vertex %d: engine %v != reference %v", qi, v, gv, tc.ref[qi][v])
						}
					}
				}
			})
		}
	}
}

// stressBatch is b heterogeneous queries (four built-in kinds and one the
// engines know only through the Kernel interface, cycling — so from b = 5 on
// a batch is several lane groups, one of them OpCustom) from distinct sources.
func stressBatch(b int) []queries.Query {
	kernels := []queries.Kernel{queries.SSSP, queries.BFS, queries.SSWP, queries.SSNP, queries.KHop(3)}
	batch := make([]queries.Query, b)
	for i := range batch {
		batch[i] = queries.Query{Kernel: kernels[i%len(kernels)], Source: graph.VertexID(2*i + 1)}
	}
	return batch
}

// TestRowLayoutStress is the race-detector stress for the vertex-major rows
// and the changed-lane mask beside them. Rows are exactly B cells, so at B=3
// and B=13 they straddle cache lines and at every width neighbouring
// vertices' rows share one — the sharing between concurrent writers that PR
// 10's padded lane segments avoided; the mask is one word a vertex up to B=64
// (B=1: the lane bit is the frontier bit), two at 65 and three at 130.
// Batches of those widths (heterogeneous, and homogeneous so the row kernel
// runs) are hammered concurrently by all CAS engines across GOMAXPROCS 1, 2
// and 8, every run checked bitwise against per-lane oracle.ReferenceRun.
// verify.sh runs this package under -race.
func TestRowLayoutStress(t *testing.T) {
	type stressCase struct {
		g       *graph.Graph
		batch   []queries.Query
		want    [][]queries.Value
		engines []Engine
	}
	var cases []stressCase
	for _, b := range []int{1, 3, 8, 13, 64, 65, 130} {
		// The widths past 13 are the mask's — one full word, two, three — and
		// run on a graph a quarter the size, to keep the -race leg short.
		g, engines := graph.MustGenerate(graph.LJ, graph.Tiny), []Engine{GlignIntra, LigraC, Krill}
		if b > 13 {
			g, engines = graph.GenerateRMAT(graph.DefaultRMAT(9, 8, 77)), engines[:1]
		}
		mixed := stressBatch(b)
		uniform := make([]queries.Query, b)
		for i, q := range mixed {
			uniform[i] = queries.Query{Kernel: queries.SSSP, Source: q.Source}
		}
		batches := [][]queries.Query{mixed, uniform}
		if b == 64 || b == 130 {
			batches = batches[:1] // 65 runs the several-word row kernel
		}
		for _, batch := range batches {
			cases = append(cases, stressCase{g, batch, referenceValues(g, batch), engines})
		}
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			var wg sync.WaitGroup
			for _, tc := range cases {
				for rep, e := range tc.engines {
					wg.Add(1)
					go func(e Engine, tc stressCase, workers int) {
						defer wg.Done()
						res, err := e.Run(tc.g, tc.batch, Options{Workers: workers})
						if err != nil {
							t.Errorf("%s: %v", e.Name(), err)
							return
						}
						for qi := range tc.batch {
							for v := 0; v < tc.g.NumVertices(); v++ {
								got := res.Value(qi, graph.VertexID(v))
								if got != tc.want[qi][v] {
									t.Errorf("%s B=%d: query %d vertex %d = %v, want %v",
										e.Name(), len(tc.batch), qi, v, got, tc.want[qi][v])
									return
								}
							}
						}
					}(e, tc, 2+rep)
				}
			}
			wg.Wait()
		})
	}
}

// TestAllQueryValuesMatchesQueryValues holds the one-pass extraction to the
// strided accessor, query by query, on a monotone and on a Jacobi result.
func TestAllQueryValuesMatchesQueryValues(t *testing.T) {
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	pr, err := queries.ByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	batches := map[string][]queries.Query{
		"monotone": stressBatch(13),
		"jacobi":   {{Kernel: pr, Source: 0}, {Kernel: pr, Source: 2}, {Kernel: pr, Source: 5}},
	}
	for name, batch := range batches {
		t.Run(name, func(t *testing.T) {
			res, err := GlignIntra.Run(g, batch, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				all := res.AllQueryValues(nil, workers)
				if len(all) != len(batch) {
					t.Fatalf("AllQueryValues returned %d vectors for %d queries", len(all), len(batch))
				}
				for q := range batch {
					want := res.QueryValues(q)
					if len(all[q]) != len(want) {
						t.Fatalf("query %d: %d values, want %d", q, len(all[q]), len(want))
					}
					for v := range want {
						if all[q][v] != want[v] {
							t.Fatalf("workers=%d query %d vertex %d: one-pass %v != QueryValues %v", workers, q, v, all[q][v], want[v])
						}
					}
				}
			}
		})
	}
}
