package core

import (
	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
)

// twoLevel is the unified + separate frontier design of paper Figure 5-b:
// the synchronized frontier traversal used by Ligra-C (the paper's extended
// Ligra baseline), Krill and SimGQ. A unified frontier is the OR of B
// per-query frontiers; traversal walks the unified frontier and, for each
// active vertex, probes every query's separate frontier to decide which
// lanes to relax. The B extra bitmap arrays and the two-level checking are
// exactly the costs Glign's query-oblivious frontier eliminates.
type twoLevel struct{}

// LigraC is the two-level frontier engine ("Ligra-C" in the paper's tables).
var LigraC Engine = twoLevel{}

func (twoLevel) Name() string { return "Ligra-C" }

func (twoLevel) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	return runBatch(g, batch, opt, -1, func(st *BatchSetup) LanePolicy {
		return &twoLevelPolicy{
			g: g, st: st, pool: par.OrDefault(opt.Pool), workers: opt.Workers,
			LaneFrontiers: NewLaneFrontiers(st.N, st.B),
		}
	})
}

// LaneFrontiers is B separate frontier pairs, one per query lane: Cur holds
// the vertices active for each lane this iteration, Next collects the next
// iteration's.
type LaneFrontiers struct {
	Cur, Next []*frontier.Subset
}

// NewLaneFrontiers returns b empty frontier pairs over n vertices.
func NewLaneFrontiers(n, b int) LaneFrontiers {
	l := LaneFrontiers{make([]*frontier.Subset, b), make([]*frontier.Subset, b)}
	for i := range l.Cur {
		l.Cur[i], l.Next[i] = frontier.New(n), frontier.New(n)
	}
	return l
}

// Inject activates src for lane.
func (l *LaneFrontiers) Inject(src graph.VertexID, lane int) { l.Cur[lane].Add(src) }

// Advance makes Next current and recycles the old frontiers as the new Next.
func (l *LaneFrontiers) Advance() {
	l.Cur, l.Next = l.Next, l.Cur
	for _, s := range l.Next {
		s.Clear()
	}
}

// twoLevelPolicy keeps B separate frontier pairs (injecting and advancing
// are theirs) under the unified frontier.
type twoLevelPolicy struct {
	g       *graph.Graph
	st      *BatchSetup
	pool    *par.Pool
	workers int
	LaneFrontiers
	active []graph.VertexID
}

// Step derives the unified frontier once per iteration from the quiesced lane
// frontiers with a word-level OR. The paper's design maintains it with a
// second per-improvement bitmap CAS (the access the traced model still
// emits): same set, no per-improvement contention on shared cache lines.
func (p *twoLevelPolicy) Step() Step {
	p.active = frontier.UnionOf(p.pool, p.workers, p.Cur...).Sparse()
	return Step{Size: len(p.active), Total: len(p.active), Body: p.push}
}

func (p *twoLevelPolicy) push(lo, hi int) Counts {
	st := p.st
	lanes := make([]int32, 0, st.B)
	var c Counts
	for _, v := range p.active[lo:hi] {
		// Second-level check: probe every query's separate frontier (B
		// scattered bitmap reads — the cost of the two-level design).
		lanes = lanes[:0]
		for i, s := range p.Cur {
			if s.Contains(v) {
				lanes = append(lanes, int32(i))
			}
		}
		if len(lanes) == 0 {
			continue
		}
		nbrs, ws := p.g.OutEdges(v)
		c.Edges += int64(len(nbrs))
		c.Relaxes += int64(len(nbrs) * len(lanes))
		vrow := st.Cell(int(v), 0)
		for j, d := range nbrs {
			w, drow := WeightAt(ws, j), st.Cell(int(d), 0)
			for _, i := range lanes {
				if queries.RelaxImprove(st.Vals, st.Kinds[i], st.Kernels[i], drow+int(i), st.Vals.Get(vrow+int(i)), w) {
					c.Writes++
					p.Next[i].AddSync(d)
				}
			}
		}
	}
	return c
}
