package core

import (
	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

// oblivious is Glign's query-oblivious frontier engine (paper §3.2,
// Figure 5-c): a single unified frontier with no per-query activation state.
// When a vertex is active, it is evaluated for *every* query in the batch —
// safe because all kernels are monotone (Theorem 3.2); lanes whose source
// value is still the kernel identity are skipped, which is exact (relaxing
// an identity can never improve a neighbor) and cheap.
//
// With Options.Alignment set, sources are injected at their scheduled global
// iterations, which is exactly Glign-Inter's "delayed start" (paper §3.3).
type oblivious struct{}

// GlignIntra is the query-oblivious frontier engine ("Glign-Intra" in the
// paper's tables; also the execution engine under Glign-Inter, Glign-Batch
// and full Glign, which differ only in scheduling).
var GlignIntra Engine = oblivious{}

func (oblivious) Name() string { return "Glign-Intra" }

func (oblivious) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	return runBatch(g, batch, opt, func(st *BatchSetup) LanePolicy {
		return &obliviousPolicy{
			g: g, rev: opt.ReverseGraph, st: st,
			pool: par.OrDefault(opt.Pool), workers: opt.Workers,
			cur: frontier.New(st.N), next: frontier.New(st.N),
		}
	})
}

// obliviousPolicy keeps no activation state beyond the unified frontier
// pair. Its step is a push over the frontier's members, or — direction
// optimization, an extension beyond the paper, which assumes push throughout
// — a pull over all n vertices of the edge-reversed graph when the frontier
// is dense by Ligra's heuristic. In a pull each destination scans its
// in-neighbors for frontier members; it is written by exactly one worker and
// its row stays cache-resident across all of its in-edges. The fixed
// point is the same either way (Theorem 3.2 holds in both directions).
type obliviousPolicy struct {
	g, rev    *graph.Graph // rev nil: never pull
	st        *BatchSetup
	pool      *par.Pool
	workers   int
	cur, next *frontier.Subset
	active    []graph.VertexID
}

func (p *obliviousPolicy) Inject(src graph.VertexID, _ int) { p.cur.Add(src) }

func (p *obliviousPolicy) Step() Step {
	if p.rev != nil && shouldPull(p.g, p.cur, p.pool, p.workers) {
		return Step{Size: p.cur.Count(), Total: p.st.N, Body: p.pull, Mode: telemetry.ModePull}
	}
	p.active = p.cur.Sparse()
	return Step{Size: len(p.active), Total: len(p.active), Body: p.push, Mode: telemetry.ModePush}
}

func (p *obliviousPolicy) Advance() {
	p.cur, p.next = p.next, p.cur
	p.next.Clear()
}

// push relaxes every out-edge of the active vertices [lo, hi) for every lane
// that has reached the vertex.
func (p *obliviousPolicy) push(lo, hi int) Counts {
	st, s := p.st, newLaneScratch(p.st)
	var c Counts
	for _, v := range p.active[lo:hi] {
		reached := s.load(st, int(v))
		if reached == 0 {
			continue
		}
		nbrs, ws := p.g.OutEdges(v)
		c.Edges += int64(len(nbrs))
		c.Relaxes += int64(len(nbrs) * reached)
		for j, d := range nbrs {
			if improved := s.relax(st, int(d), WeightAt(ws, j)); improved > 0 {
				c.Writes += int64(improved)
				p.next.AddSync(d)
			}
		}
	}
	return c
}

// pull relaxes, for every destination in [lo, hi), each in-edge whose source
// is in the frontier, across every lane — reached or not, so the lane groups
// are the batch's static ones and an in-edge costs only the copy of its
// source's row: relaxing an identity proposes nothing better than what any
// cell holds.
func (p *obliviousPolicy) pull(lo, hi int) Counts {
	st, s := p.st, newLaneScratch(p.st)
	s.groups = st.groups
	var c Counts
	for d := lo; d < hi; d++ {
		ins, ws := p.rev.OutEdges(graph.VertexID(d))
		improved := 0
		for j, src := range ins {
			if !p.cur.Contains(src) {
				continue
			}
			c.Edges++
			c.Relaxes += int64(st.B)
			st.Vals.LoadRow(st.Cell(int(src), 0), s.src)
			improved += s.relax(st, d, WeightAt(ws, j))
		}
		if improved > 0 {
			c.Writes += int64(improved)
			p.next.AddSync(graph.VertexID(d))
		}
	}
	return c
}

// laneGroup is the lanes of a batch that run one kind of kernel, so an edge
// runs one fused, devirtualized relaxation loop per kind instead of a switch
// and two indirect calls per lane. A homogeneous batch — the common case — is
// one group.
type laneGroup struct {
	kind  queries.OpKind
	lanes []int32
}

// groupLanes groups every lane of a batch by kernel kind (BatchSetup.groups).
func groupLanes(kinds []queries.OpKind) (groups []laneGroup) {
	var byKind [queries.OpViterbi + 1][]int32
	for i, k := range kinds {
		byKind[k] = append(byKind[k], int32(i))
	}
	for k, lanes := range byKind {
		if len(lanes) > 0 {
			groups = append(groups, laneGroup{queries.OpKind(k), lanes})
		}
	}
	return groups
}

// laneScratch is a chunk's view of one source vertex: a snapshot of its row,
// and the lane groups relax runs over — in a push the lanes that have reached
// the vertex (value no longer the kernel identity).
type laneScratch struct {
	src    []queries.Value
	cand   []queries.Value // candidate row of the row kernels
	lanes  []int32         // the reached lanes, group after group
	groups []laneGroup
}

func newLaneScratch(st *BatchSetup) *laneScratch {
	rows := make([]queries.Value, 2*st.B)
	return &laneScratch{
		src:    rows[:st.B:st.B],
		cand:   rows[st.B:],
		lanes:  make([]int32, 0, st.B),
		groups: make([]laneGroup, 0, len(st.groups)),
	}
}

// load snapshots vertex v's row — re-used across all of its edges — and
// returns how many lanes have reached it.
func (s *laneScratch) load(st *BatchSetup, v int) (reached int) {
	st.Vals.LoadRow(st.Cell(v, 0), s.src)
	s.lanes, s.groups = s.lanes[:0], s.groups[:0]
	for _, g := range st.groups {
		from := len(s.lanes)
		for _, i := range g.lanes {
			if s.src[i] != st.Identity[i] {
				s.lanes = append(s.lanes, i)
			}
		}
		if len(s.lanes) > from {
			s.groups = append(s.groups, laneGroup{g.kind, s.lanes[from:]})
		}
	}
	return len(s.lanes)
}

// relax relaxes the snapshotted vertex's edge to d (weight w) in every lane
// of s.groups and returns how many lanes improved. When that is every lane of
// the batch under one built-in kind — a homogeneous batch once its queries
// have met, and always in a pull — the edge is one pass over d's row;
// otherwise it is queries.RelaxImprove with the kind switch hoisted out of
// the lane loop.
func (s *laneScratch) relax(st *BatchSetup, d int, w graph.Weight) (improved int) {
	row := st.Cell(d, 0)
	if g := s.groups[0]; len(g.lanes) == st.B && g.kind != queries.OpCustom {
		return queries.RelaxImproveRow(st.Vals, g.kind, row, s.src, s.cand, w)
	}
	wv := queries.Value(w)
	for _, g := range s.groups {
		switch g.kind {
		case queries.OpBFS:
			for _, i := range g.lanes {
				if st.Vals.ImproveMin(row+int(i), s.src[i]+1) {
					improved++
				}
			}
		case queries.OpSSSP:
			for _, i := range g.lanes {
				if st.Vals.ImproveMin(row+int(i), s.src[i]+wv) {
					improved++
				}
			}
		case queries.OpSSWP:
			for _, i := range g.lanes {
				if st.Vals.ImproveMax(row+int(i), min(s.src[i], wv)) {
					improved++
				}
			}
		case queries.OpSSNP:
			for _, i := range g.lanes {
				if st.Vals.ImproveMin(row+int(i), max(s.src[i], wv)) {
					improved++
				}
			}
		case queries.OpViterbi:
			for _, i := range g.lanes {
				if st.Vals.ImproveMax(row+int(i), s.src[i]/wv) {
					improved++
				}
			}
		default:
			for _, i := range g.lanes {
				if st.Vals.Improve(row+int(i), st.Kernels[i].Relax(s.src[i], w), st.Kernels[i].Better) {
					improved++
				}
			}
		}
	}
	return improved
}

// shouldPull applies Ligra's density heuristic to the unified frontier. The
// out-degree sum over the frontier is a fold, so it runs as a parallel
// reduction on the pool (exact: integer addition commutes); the decision is
// made once per global iteration on frontiers that can span most of the
// graph.
func shouldPull(g *graph.Graph, cur *frontier.Subset, pool *par.Pool, workers int) bool {
	active := cur.Sparse()
	outSum := par.ForReduce(pool, len(active), workers, 0, 0,
		func(lo, hi int, acc int) int {
			for i := lo; i < hi; i++ {
				acc += g.OutDegree(active[i])
			}
			return acc
		},
		func(a, b int) int { return a + b })
	return cur.IsDense(outSum, g.NumEdges())
}
