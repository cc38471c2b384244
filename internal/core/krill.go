package core

import (
	"fmt"
	"math/bits"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// krill models the Krill system (Chen et al., SC'21): like Ligra-C it
// tracks per-query activation, but it fuses the B separate frontiers into a
// per-vertex query bitmask so that a vertex's activation state for all
// queries shares one cache line, and it processes all active lanes of a
// vertex in one fused pass over its edges ("kernel fusion" + property-data
// management). It therefore sits between Ligra-C and Glign-Intra in both
// frontier footprint and locality, which is where the paper measures it.
type krill struct{}

// Krill is the fused two-level engine. Batches are limited to 64 queries
// (one bitmask word), matching the paper's default batch size.
var Krill Engine = krill{}

func (krill) Name() string { return "Krill" }

func (krill) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	// The Jacobi evaluator convergence kernels take has no bitmask to fill.
	if len(batch) > frontier.MaxQueries && !queries.AnyConvergent(batch) {
		return nil, fmt.Errorf("core: Krill engine supports at most %d queries per batch, got %d",
			frontier.MaxQueries, len(batch))
	}
	return runBatch(g, batch, opt, -1, func(st *BatchSetup) LanePolicy {
		return &krillPolicy{
			g: g, st: st,
			union: frontier.New(st.N), nextUnion: frontier.New(st.N),
			qm: frontier.NewQueryMask(st.N), nextQM: frontier.NewQueryMask(st.N),
		}
	})
}

// krillPolicy keeps one query bitmask per vertex beside the unified frontier,
// each as a cur/next pair.
type krillPolicy struct {
	g                *graph.Graph
	st               *BatchSetup
	union, nextUnion *frontier.Subset
	qm, nextQM       *frontier.QueryMask
	active           []graph.VertexID
}

func (p *krillPolicy) Inject(src graph.VertexID, lane int) {
	p.qm.Set(src, lane)
	p.union.Add(src)
}

func (p *krillPolicy) Step() Step {
	p.active = p.union.Sparse()
	return Step{Size: len(p.active), Total: len(p.active), Body: p.push}
}

func (p *krillPolicy) Advance() {
	p.union, p.nextUnion = p.nextUnion, p.union
	p.qm, p.nextQM = p.nextQM, p.qm
	p.nextUnion.Clear()
	p.nextQM.Clear()
}

func (p *krillPolicy) push(lo, hi int) Counts {
	st := p.st
	var c Counts
	for _, v := range p.active[lo:hi] {
		mask := p.qm.Get(v)
		if mask == 0 {
			continue
		}
		nbrs, ws := p.g.OutEdges(v)
		c.Edges += int64(len(nbrs))
		c.Relaxes += int64(len(nbrs) * bits.OnesCount64(mask))
		vrow := st.Cell(int(v), 0)
		for j, d := range nbrs {
			w, drow := WeightAt(ws, j), st.Cell(int(d), 0)
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				if queries.RelaxImprove(st.Vals, st.Kinds[i], st.Kernels[i], drow+i, st.Vals.Get(vrow+i), w) {
					c.Writes++
					p.nextQM.Set(d, i)
					p.nextUnion.AddSync(d)
				}
			}
		}
	}
	return c
}
