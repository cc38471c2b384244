package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/queries"
)

// TestHopLanesMatchReference holds Glign-Intra's hop lanes — the design of a
// batch whose every lane is BFS — bit for bit to oracle.ReferenceRun, lane by
// lane, through the corners of their bookkeeping: one lane and the lane-word
// boundary (B = 1, 2, 63, 64, 65); alignment vectors with ties and with gaps,
// one lane starting after the others have finished; sources repeated within a
// batch, at one start and at different ones; an undirected road graph and a
// directed graph with unreachable vertices; Workers 1, 2 and 8. Each worker
// count runs every batch on one Arena, a hop batch, then an SSSP batch of the
// same width, then the next width's hop batch, so a seen word or a mask bit
// the hop lanes failed to hand back clean reaches the batches after it.
// verify.sh runs this package under -race.
func TestHopLanesMatchReference(t *testing.T) {
	// Small, to keep the -race leg short: 256 vertices each.
	road, directed := graph.GenerateRoad(graph.DefaultRoad(16, 16, 7)), graph.GenerateRMAT(graph.DefaultRMAT(8, 8, 77))
	if !directed.Directed {
		t.Fatal("the R-MAT graph is not directed")
	}
	unreachable := false
	for _, d := range oracle.ReferenceRun(directed, queries.Query{Kernel: queries.BFS, Source: 1}) {
		unreachable = unreachable || math.IsInf(d, 1)
	}
	if !unreachable {
		t.Fatal("every vertex of the directed graph is reachable from v1")
	}
	for _, workers := range []int{1, 2, 8} {
		for _, g := range []*graph.Graph{road, directed} {
			t.Run(fmt.Sprintf("directed=%v/workers=%d", g.Directed, workers), func(t *testing.T) {
				arena := new(Arena)
				for _, b := range []int{1, 2, 63, 64, 65} {
					batch, align := hopBatch(g, b)
					runHop(t, arena, g, batch, Options{Workers: workers, Alignment: align})
					if s := arena.push.Load(); s == nil || s.masks[2] == nil {
						t.Fatalf("B=%d: the batch did not run on hop lanes, or did not hand its push state back", b)
					}
					for i := range batch {
						batch[i].Kernel = queries.SSSP
					}
					runHop(t, arena, g, batch, Options{Workers: workers, Alignment: align})
				}
			})
		}
	}
}

// hopBatch returns b BFS queries on g and their alignment vector: sources
// drawn from fewer than b vertices, so that they repeat, and starts in
// {0, 2, 4, 6}, tied and with gaps, but for the last lane of a wide batch,
// which starts long after the others have finished.
func hopBatch(g *graph.Graph, b int) ([]queries.Query, []int) {
	batch, align := make([]queries.Query, b), make([]int, b)
	for i := range batch {
		src := graph.VertexID((i % (b/2 + 1)) * 37 % g.NumVertices())
		batch[i] = queries.Query{Kernel: queries.BFS, Source: src}
		align[i] = 2 * (i * 5 % 4)
	}
	if b > 2 {
		align[b-1] = g.NumVertices() // past every level of the others
	}
	return batch, align
}

// runHop evaluates batch on arena, holds every lane to oracle.ReferenceRun,
// releases the result and holds the arena's push state to its invariant.
func runHop(t *testing.T, arena *Arena, g *graph.Graph, batch []queries.Query, opt Options) {
	t.Helper()
	opt.Arena = arena
	res, err := GlignIntra.Run(g, batch, opt)
	checkReferenceValues(t, fmt.Sprintf("%s B=%d", batch[0].Kernel.Name(), len(batch)), g, batch, res, err)
	res.Release()
	checkArenaPushClean(t, arena)
}
