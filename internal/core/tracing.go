package core

import (
	"math/bits"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/memtrace"
	"github.com/glign/glign/internal/queries"
)

// Cache-trace modelling. When Options.Tracer is set, Drive runs a model of
// the policy's design in the policy's place: the same traversal, walked
// serially and un-fused on the model's own frontier state, emitting the
// address stream the paper's design would produce, so the production bodies
// carry no tracer. Value accesses are addressed by Cell, like the real array.
//
// The model is held to the production bodies by
// TestTracingDeterministicAndHarmless (values) and to the committed access
// stream by TestEngineGolden.

// design names the per-query activation state a policy keeps (paper Figure
// 5): which simulated structures its model touches, and where. The designs
// evaluate alike — relax each active vertex in the lanes it is active for —
// and differ in the address stream only at the points the model's switches
// mark:
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
// since the vertex last pushed and is the one array its policy owns
// (laneMask), claimed and marked here exactly as the production bodies do.
type design int

const (
	unionOnly  design = iota // Glign-Intra: one changed-lane mask beside the unified frontier
	twoLevels                // Ligra-C: B separate frontier bitmaps under it
	queryMasks               // Krill: one query bitmask per vertex under it
	jobs                     // GraphM: B separate frontiers, no unified one
)

func (*obliviousPolicy) traceDesign() design { return unionOnly }
func (*twoLevelPolicy) traceDesign() design  { return twoLevels }
func (*krillPolicy) traceDesign() design     { return queryMasks }

// jobOrdered is a policy that runs each query as an independent job over its
// own frontier: VisitOrder yields one iteration's (vertex, lane) visits in
// the order the design streams the graph, given each lane's sorted active
// vertices.
type jobOrdered interface {
	VisitOrder(active [][]graph.VertexID, job func(v graph.VertexID, lane int))
}

// traced returns what Drive runs and on how many workers: p as it is, or —
// under a tracer — the model of p's design, serially so the access stream is
// deterministic.
func traced(g *graph.Graph, st *BatchSetup, opt Options, p LanePolicy) (LanePolicy, int) {
	if opt.Tracer == nil {
		return p, opt.Workers
	}
	n, m := int64(g.NumVertices()), int64(g.NumEdges())
	t := &tracedModel{tr: opt.Tracer, g: g, st: st, design: jobs, fbytes: frontierBitmapBytes(st.N),
		LaneFrontiers: NewLaneFrontiers(st.N, st.B)}
	t.offsets = t.layout.Place((n + 1) * 4)
	t.targets = t.layout.Place(m * 4)
	if g.Weighted() {
		t.weights = t.layout.Place(m * 4)
	}
	t.values = t.layout.Place(n * int64(st.B) * 8)
	t.unionCur, t.unionNext = t.layout.Place(t.fbytes), t.layout.Place(t.fbytes)
	if d, ok := p.(interface{ traceDesign() design }); ok {
		t.design = d.traceDesign()
	} else {
		t.order = p.(jobOrdered).VisitOrder
	}
	switch t.design {
	case unionOnly:
		t.claimed = make([]uint64, (st.B+63)/64)
		if t.dirty = p.(*obliviousPolicy).dirty; t.dirty != nil {
			t.dirtyBase = t.layout.Place(int64(len(t.dirty.words)) * 8)
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

// tracedModel is the model of one traced run. Its state is one frontier pair
// per query lane — the finest activation state any design keeps (a unified
// frontier is their OR, a query mask their transpose) — and the simulated
// address space: page-aligned, disjoint regions (memtrace.Layout) for the CSR
// arrays, the value array, the unified frontier pair and the design's
// activation structures.
type tracedModel struct {
	tr     memtrace.Tracer
	g      *graph.Graph
	st     *BatchSetup
	design design
	order  func(active [][]graph.VertexID, job func(v graph.VertexID, lane int)) // jobs only
	work   Counts                                                                // of the iteration being walked; Advance resets it
	LaneFrontiers

	layout                    memtrace.Layout
	fbytes                    int64 // one frontier bitmap
	offsets, targets, weights int64
	values                    int64
	unionCur, unionNext       int64
	sepCur, sepNext           []int64   // per-query frontier bitmaps
	qmaskCur, qmaskNext       int64     // per-vertex query masks
	dirty                     *laneMask // unionOnly: the policy's changed-lane mask
	dirtyBase                 int64
	claimed                   []uint64 // the lanes claimed from the vertex being visited
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
	if t.dirty != nil {
		t.tr.Access(t.dirtyBase+int64(int(v)*t.dirty.w)*8, int64(t.dirty.w)*8, write)
	}
}

func (t *tracedModel) Inject(src graph.VertexID, lane int) {
	t.LaneFrontiers.Inject(src, lane)
	if t.design != jobs {
		t.value(src, lane, 1, true)
	}
	switch t.design {
	case unionOnly:
		t.dirty.set(int(src), lane)
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
	t.LaneFrontiers.Advance()
	t.work = Counts{}
	t.unionCur, t.unionNext = t.unionNext, t.unionCur
	t.sepCur, t.sepNext = t.sepNext, t.sepCur
	t.qmaskCur, t.qmaskNext = t.qmaskNext, t.qmaskCur
}

// Step is the whole walk as one chunk, so it runs exactly once per iteration
// — also on idle iterations whose frontier is empty, which still pay their
// bitmap scans.
func (t *tracedModel) Step() Step {
	step := Step{Total: 1}
	if t.design == jobs {
		// One scan per job, then the jobs' visits in the design's order. A
		// vertex active for k jobs counts k times (see GraphM's Step).
		active := make([][]graph.VertexID, t.st.B)
		for i, s := range t.Cur {
			active[i] = s.Sparse()
			step.Size += len(active[i])
		}
		job := func(v graph.VertexID, lane int) { t.visit(v, []int{lane}) }
		step.Body = func(_, _ int) Counts {
			for _, base := range t.sepCur {
				t.scan(base)
			}
			t.order(active, job)
			return t.work
		}
		return step
	}
	union := frontier.UnionOf(nil, 1, t.Cur...)
	step.Size = union.Count()
	step.Body = func(_, _ int) Counts {
		t.scan(t.unionCur)
		lanes := make([]int, 0, t.st.B)
		for _, v := range union.Sparse() {
			t.visit(v, t.activeLanes(v, lanes[:0]))
		}
		return t.work
	}
	return step
}

// activeLanes appends the lanes a unified-frontier design relaxes v in:
// those v is active for, or — unionOnly — those it claims from its mask.
func (t *tracedModel) activeLanes(v graph.VertexID, lanes []int) []int {
	switch t.design {
	case unionOnly:
		t.changed(v, false)
		t.dirty.claim(int(v), t.claimed)
		for w, m := range t.claimed {
			for ; m != 0; m &= m - 1 {
				lanes = append(lanes, w*64+bits.TrailingZeros64(m))
			}
		}
		return lanes
	case queryMasks:
		t.mask(t.qmaskCur, v, false)
	}
	for i, s := range t.Cur {
		if t.design == twoLevels {
			t.word(t.sepCur[i], v, false)
		}
		if s.Contains(v) {
			lanes = append(lanes, i)
		}
	}
	return lanes
}

// visit relaxes v's out-edges in the given lanes, one generic RelaxImprove
// per lane and edge.
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
			if !queries.RelaxImprove(st.Vals, st.Kinds[i], st.Kernels[i], st.Cell(int(d), i), st.Vals.Get(st.Cell(int(v), i)), WeightAt(ws, j)) {
				continue
			}
			improved++
			t.Next[i].Add(d)
			t.value(d, i, 1, true)
			if t.design == unionOnly {
				t.dirty.set(int(d), i)
			}
			if t.sepNext != nil {
				t.word(t.sepNext[i], d, true)
			}
			if t.design == twoLevels {
				t.word(t.unionNext, d, true)
			}
		}
		c.Writes += int64(improved)
		switch {
		case improved == 0:
		case t.design == unionOnly:
			t.changed(d, true)
			t.word(t.unionNext, d, true)
		case t.design == queryMasks:
			t.mask(t.qmaskNext, d, true)
			t.word(t.unionNext, d, true)
		}
	}
}
