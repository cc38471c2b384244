package core

import (
	"math/bits"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/queries"
)

// Cache-trace modelling. When Options.Tracer is set, drive runs a model of
// the policy's design around the policy: the model's Inject, Step and
// Advance are the policy's own, so the traversal runs on the policy's
// frontier and lane state, and its step walks that state serially and
// un-fused, emitting the address stream the paper's design would produce, so
// the production bodies carry no tracer. Value accesses are addressed by
// Cell, like the real array.
//
// The model is held to the production bodies by
// TestTracingDeterministicAndHarmless (values) and
// TestModelCountsMatchProduction (counts), and to the committed access stream
// by TestEngineGolden.

// design names the per-query activation state a policy keeps (paper Figure
// 5). In production the three unified-frontier designs share one push body
// (unifiedPolicy) and differ only in the lane state it claims from and marks
// into; under a tracer it picks which simulated structures the model touches,
// and where. The model claims and marks that same state, but emits each design
// as the paper draws it — Ligra-C's unified frontier an OR of its lane
// frontiers, with the per-improvement writes of both — not as the shared body
// runs it. The designs evaluate alike — relax each active vertex in the lanes
// it is active for — and differ in the address stream only at the points the
// model's switches mark:
//
//	             unionOnly          twoLevels, jobs         queryMasks
//	per vertex   changed-lane mask, (B frontier probes,)    mask word,
//	             then a value per   then a value per lane   then B-value block
//	             changed lane
//	lane + edge  value read         value read              value read
//	improvement  value write        value, separate (and    value write
//	                                unified) frontier writes
//	per edge     mask and unified   —                       mask and unified
//	             frontier writes                            frontier writes
//
// unionOnly and queryMasks differ in what the mask means and how many there
// are: Krill's says which queries a vertex is active for and is
// double-buffered like its frontier; Glign-Intra's says which lanes changed
// since the vertex last pushed (laneMask).
//
// hopLanes, Glign-Intra's design for a batch whose every lane is BFS, has no
// model: a traced run keeps unionOnly, so the address stream of a BFS batch
// is that of the value design (TestModelCountsMatchProduction holds it).
type design int

const (
	unionOnly  design = iota // Glign-Intra: one changed-lane mask beside the unified frontier
	twoLevels                // Ligra-C: B separate frontier bitmaps under it
	queryMasks               // Krill: one query bitmask per vertex under it
	jobs                     // GraphM: B separate frontiers, no unified one
	hopLanes                 // Glign-Intra on an all-BFS batch, untraced: a claim/next mask pair and a seen mask (unified.go)
)

// traced returns what drive runs and on how many workers: p as it is, or —
// under a tracer — the model of p's design wrapped around p, serially so the
// access stream is deterministic.
func traced(g *graph.Graph, st *batchSetup, opt Options, p lanePolicy) (lanePolicy, int) {
	if opt.Tracer == nil {
		return p, opt.Workers
	}
	n, m := int64(g.NumVertices()), int64(g.NumEdges())
	t := &tracedModel{lanePolicy: p, tr: opt.Tracer, g: g, st: st, design: jobs, fbytes: frontierBitmapBytes(st.N),
		claimed: make([]uint64, (st.B+63)/64), lanes: make([]int, 0, st.B)}
	t.offsets = t.layout.Place((n + 1) * 4)
	t.targets = t.layout.Place(m * 4)
	if g.Weighted() {
		t.weights = t.layout.Place(m * 4)
	}
	t.values = t.layout.Place(n * int64(st.B) * 8)
	t.unionCur, t.unionNext = t.layout.Place(t.fbytes), t.layout.Place(t.fbytes)
	if u, ok := p.(*unifiedPolicy); ok {
		t.u, t.design = u, u.design
	} else {
		t.gm = p.(*graphmPolicy)
	}
	switch t.design {
	case unionOnly:
		if mask := t.u.mask; mask != nil {
			t.maskBase = t.layout.Place(int64(len(mask.words)) * 8)
		}
	case twoLevels, jobs:
		t.sepCur, t.sepNext = make([]int64, st.B), make([]int64, st.B)
		for i := range t.sepCur {
			t.sepCur[i], t.sepNext[i] = t.layout.Place(t.fbytes), t.layout.Place(t.fbytes)
		}
	case queryMasks:
		t.qmaskCur, t.qmaskNext = t.layout.Place(n*8), t.layout.Place(n*8)
	}
	return t, 1
}

// tracedModel is the model of one traced run, wrapped around the policy drive
// was handed. Of its own it keeps only the simulated address space —
// page-aligned, disjoint regions (memtrace.Layout) for the CSR arrays, the
// value array, the unified frontier pair and the design's activation
// structures — and the lanes of the vertex being visited.
type tracedModel struct {
	lanePolicy
	u       *unifiedPolicy // the policy, at a unified-frontier design
	gm      *graphmPolicy  // the policy, at jobs
	tr      memtrace.Tracer
	g       *graph.Graph
	st      *batchSetup
	design  design
	work    counts   // of the iteration being walked; Advance resets it
	claimed []uint64 // the lanes claimed from the vertex being visited, a word per 64
	lanes   []int    // the same lanes, listed

	layout                    memtrace.Layout
	fbytes                    int64 // one frontier bitmap
	offsets, targets, weights int64
	values                    int64
	unionCur, unionNext       int64
	sepCur, sepNext           []int64 // per-query frontier bitmaps
	qmaskCur, qmaskNext       int64   // per-vertex query masks
	maskBase                  int64   // unionOnly: the changed-lane mask
}

// scan models a sequential full read of a frontier bitmap (materializing
// its sparse view).
func (t *tracedModel) scan(base int64) {
	for off := int64(0); off < t.fbytes; off += 8 {
		t.tr.Access(base+off, 8, false)
	}
}

// vertex models reading Offsets[v] and Offsets[v+1].
func (t *tracedModel) vertex(v graph.VertexID) { t.tr.Access(t.offsets+int64(v)*4, 8, false) }

// value models touching `lanes` consecutive cells of ValArray starting at
// vertex v, query lane.
func (t *tracedModel) value(v graph.VertexID, lane, lanes int, write bool) {
	t.tr.Access(t.values+int64(t.st.Cell(int(v), lane))*8, int64(lanes)*8, write)
}

// word models touching the word of the bitmap at base that holds vertex v.
func (t *tracedModel) word(base int64, v graph.VertexID, write bool) {
	t.tr.Access(base+int64(v>>6)*8, 8, write)
}

// mask models touching vertex v's word of the query-mask array at base.
func (t *tracedModel) mask(base int64, v graph.VertexID, write bool) {
	t.tr.Access(base+int64(v)*8, 8, write)
}

// changed models touching vertex v's words of the changed-lane mask; a batch
// of one query has none.
func (t *tracedModel) changed(v graph.VertexID, write bool) {
	if m := t.u.mask; m != nil {
		t.tr.Access(t.maskBase+int64(int(v)*m.w)*8, int64(m.w)*8, write)
	}
}

func (t *tracedModel) Inject(src graph.VertexID, lane int) {
	t.lanePolicy.Inject(src, lane)
	if t.design != jobs {
		t.value(src, lane, 1, true)
	}
	switch t.design {
	case unionOnly:
		t.changed(src, true)
	case twoLevels:
		t.word(t.sepCur[lane], src, true)
		t.word(t.unionCur, src, true)
	case queryMasks:
		t.mask(t.qmaskCur, src, true)
		t.word(t.unionCur, src, true)
	}
}

func (t *tracedModel) Advance() {
	t.lanePolicy.Advance()
	t.work = counts{}
	t.unionCur, t.unionNext = t.unionNext, t.unionCur
	t.sepCur, t.sepNext = t.sepNext, t.sepCur
	t.qmaskCur, t.qmaskNext = t.qmaskNext, t.qmaskCur
}

// Step is the policy's step with the whole walk as one chunk, so it runs
// exactly once per iteration — also on idle iterations whose frontier is
// empty, which still pay their bitmap scans.
func (t *tracedModel) Step() step {
	s := t.lanePolicy.Step()
	s.Total, s.Grain = 1, 0
	if t.design == jobs {
		// One scan per job, then the jobs' visits in the design's order.
		s.Body = func(_, _, _ int) counts {
			for _, base := range t.sepCur {
				t.scan(base)
			}
			t.gm.visitOrder(func(v graph.VertexID, lane int) { t.visit(v, append(t.lanes[:0], lane)) })
			return t.work
		}
		return s
	}
	s.Body = func(_, _, _ int) counts {
		t.scan(t.unionCur)
		for _, v := range t.u.active {
			t.visit(v, t.claim(v))
		}
		return t.work
	}
	return s
}

// claim takes from the policy's lane state the lanes a unified-frontier
// design relaxes v in, as its push does, and lists them.
func (t *tracedModel) claim(v graph.VertexID) []int {
	switch t.design {
	case unionOnly:
		t.changed(v, false)
		t.u.mask.claim(int(v), t.claimed)
	case queryMasks:
		t.mask(t.qmaskCur, v, false)
		t.u.mask.claim(int(v), t.claimed)
	case twoLevels:
		for _, base := range t.sepCur {
			t.word(base, v, false)
		}
		t.u.lanes.claim(v, t.claimed)
	}
	lanes := t.lanes[:0]
	for w, m := range t.claimed {
		for ; m != 0; m &= m - 1 {
			lanes = append(lanes, w<<6+bits.TrailingZeros64(m))
		}
	}
	return lanes
}

// visit relaxes v's out-edges in the given lanes, one generic RelaxImprove
// per lane and edge, and marks each destination it improved in the policy's
// lane state and next frontier.
func (t *tracedModel) visit(v graph.VertexID, lanes []int) {
	st, c := t.st, &t.work
	if len(lanes) == 0 {
		return
	}
	t.vertex(v)
	if t.design == queryMasks {
		t.value(v, 0, st.B, false)
	} else {
		for _, i := range lanes {
			t.value(v, i, 1, false)
		}
	}
	nbrs, ws := t.g.OutEdges(v)
	c.Edges += int64(len(nbrs))
	c.Relaxes += int64(len(nbrs) * len(lanes))
	for j, d := range nbrs {
		// The CSR entry: target and, when present, weight.
		eo := (int64(t.g.Offsets[v]) + int64(j)) * 4
		t.tr.Access(t.targets+eo, 4, false)
		if ws != nil {
			t.tr.Access(t.weights+eo, 4, false)
		}
		improved := 0
		for _, i := range lanes {
			t.value(d, i, 1, false)
			if !queries.RelaxImprove(st.Vals, st.Kinds[i], st.Kernels[i], st.Cell(int(d), i), st.Vals.Get(st.Cell(int(v), i)), weightAt(ws, j)) {
				continue
			}
			improved++
			t.value(d, i, 1, true)
			switch t.design {
			case jobs:
				t.gm.Next[i].Add(d)
				t.word(t.sepNext[i], d, true)
			case twoLevels:
				t.u.lanes.Next[i].Add(d)
				t.word(t.sepNext[i], d, true)
				t.word(t.unionNext, d, true)
			default:
				t.u.nextMask.set(int(d), i)
			}
		}
		c.Writes += int64(improved)
		if improved == 0 || t.design == jobs {
			continue
		}
		t.u.next.Add(d)
		switch t.design {
		case unionOnly:
			t.changed(d, true)
			t.word(t.unionNext, d, true)
		case queryMasks:
			t.mask(t.qmaskNext, d, true)
			t.word(t.unionNext, d, true)
		}
	}
}
