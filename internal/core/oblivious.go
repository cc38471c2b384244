package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// oblivious is Glign's query-oblivious frontier engine (paper §3.2,
// Figure 5-c): a single unified frontier with no per-query activation state.
// The paper evaluates an active vertex for *every* query in the batch — safe
// because all kernels are monotone (Theorem 3.2). This engine keeps the one
// frontier and takes that argument one step further: a lane whose value has
// not changed since the vertex last pushed proposes exactly what it proposed
// then, so an active vertex relaxes only the lanes that changed (laneMask) —
// which also skips every lane that has not reached it, whose value is still
// the kernel identity.
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
	return runOblivious(g, batch, opt, -1)
}

// runOblivious is GlignIntra's Run with the telemetry records' Query (see
// drive).
func runOblivious(g *graph.Graph, batch []queries.Query, opt Options, query int) (*BatchResult, error) {
	var p *obliviousPolicy
	res, err := runBatch(g, batch, opt, query, func(st *BatchSetup) LanePolicy {
		p = newObliviousPolicy(g, st, opt.Arena)
		return p
	})
	// At a fixed point the mask is all-zero again (see laneMask) and serves
	// the next batch; a capped run can stop with bits set, and a traced one
	// advances its model's frontier, not p.cur, so their masks are dropped.
	if p != nil && err == nil && opt.Tracer == nil && p.cur.IsEmpty() {
		opt.Arena.releaseMask(p.dirty)
	}
	return res, err
}

func newObliviousPolicy(g *graph.Graph, st *BatchSetup, arena *Arena) *obliviousPolicy {
	p := &obliviousPolicy{
		g: g, st: st,
		cur: frontier.New(st.N), next: frontier.New(st.N),
		dirty: arena.takeMask(st.N, st.B),
	}
	p.scratch.New = func() any { return newLaneScratch(st) }
	return p
}

// Frontiers evaluates q alone, as GlignIntra's one-query batch, and returns
// the frontier entering each of its iterations: the per-query history the
// affinity analyses of internal/align are computed from. opt must carry no
// Tracer: a traced run walks its model's frontier, not the policy's.
func Frontiers(g *graph.Graph, q queries.Query, opt Options) ([]*frontier.Subset, error) {
	var rec *recorder
	res, err := Drive(g, []queries.Query{q}, opt, func(st *BatchSetup) LanePolicy {
		rec = &recorder{obliviousPolicy: newObliviousPolicy(g, st, opt.Arena)}
		return rec
	})
	if err != nil {
		return nil, err
	}
	return rec.frontiers[:res.GlobalIterations], nil
}

// recorder is the query-oblivious policy keeping a copy of the frontier at
// every Step — one more than Drive runs, when the last frontier is empty.
type recorder struct {
	*obliviousPolicy
	frontiers []*frontier.Subset
}

func (r *recorder) Step() Step {
	r.frontiers = append(r.frontiers, r.cur.Clone())
	return r.obliviousPolicy.Step()
}

// obliviousPolicy keeps the unified frontier pair and one changed-lane mask.
// Its step is a push over the frontier's members.
type obliviousPolicy struct {
	g         *graph.Graph
	st        *BatchSetup
	cur, next *frontier.Subset
	active    []graph.VertexID
	dirty     *laneMask
	scratch   sync.Pool // of *laneScratch: one a worker for the run, not one a chunk
}

func (p *obliviousPolicy) Inject(src graph.VertexID, lane int) {
	p.dirty.set(int(src), lane)
	p.cur.Add(src)
}

func (p *obliviousPolicy) Step() Step {
	p.active = p.cur.Sparse()
	return Step{Size: len(p.active), Total: len(p.active), Body: p.push}
}

func (p *obliviousPolicy) Advance() {
	p.cur, p.next = p.next, p.cur
	p.next.Clear()
}

// push relaxes every out-edge of the active vertices [lo, hi) in the lanes
// that changed since the vertex last pushed. A vertex none changed at — one
// that pushed its news earlier in the iteration that activated it — is
// skipped.
func (p *obliviousPolicy) push(lo, hi int) Counts {
	st, s := p.st, p.scratch.Get().(*laneScratch)
	defer p.scratch.Put(s)
	var c Counts
	for _, v := range p.active[lo:hi] {
		changed := s.claim(p, int(v))
		if changed == 0 {
			continue
		}
		nbrs, ws := p.g.OutEdges(v)
		c.Edges += int64(len(nbrs))
		c.Relaxes += int64(len(nbrs) * changed)
		for j, d := range nbrs {
			if improved := s.relax(st, int(d), WeightAt(ws, j)); improved > 0 {
				c.Writes += int64(improved)
				p.dirty.mark(int(d), s.improved)
				p.next.AddSync(d)
			}
		}
	}
	return c
}

// laneMask is the one piece of per-lane state the engine keeps: a bit per
// (vertex, lane) — ceil(B/64) words a vertex, 1/64 of the value array at
// B=64 — set when the lane's value at the vertex changed and the vertex has
// not pushed it yet. It is single-buffered: a lane that arrives at a vertex
// before the vertex pushes in the same iteration rides along with that push.
//
// Exactness rests on two orderings. A writer installs the value (CAS), then
// marks, then adds the vertex to the next frontier; a pusher claims (swaps
// the words to zero), then loads the row. So a change is either marked before
// the claim — and the load, which follows the claim, sees it — or marked
// after, and then the bit stands and the vertex is in the next frontier to
// push it. Every marked vertex is in the frontier its marker fills and every
// frontier member is claimed, so at a fixed point, where the frontier is
// empty, the mask is all-zero — which is what lets an Arena hand it to the
// owner's next batch with no clearing pass, where a batch of two or three
// queries, for which a word a vertex is a good part of a row, would otherwise
// allocate one.
//
// A batch of one query keeps none (a nil *laneMask, whose methods claim the
// one lane every time and mark nothing): its frontier bit is its lane bit.
type laneMask struct {
	w     int // words a vertex
	words []uint64
}

func (m *laneMask) of(v int) []uint64 { return m.words[v*m.w:][:m.w] }

// set marks one lane of v.
func (m *laneMask) set(v, lane int) {
	if m != nil {
		orWord(&m.of(v)[lane>>6], 1<<(lane&63))
	}
}

// mark moves the lanes improved holds, a word per 64 lanes, into v's mask,
// leaving improved zero. It zeroes word by word as it goes: clear would be a
// memory-clearing call on every improvement, which a batch of one query —
// one word, no mask — pays for nothing else.
func (m *laneMask) mark(v int, improved []uint64) {
	for w, lanes := range improved {
		improved[w] = 0
		if m != nil {
			orWord(&m.of(v)[w], lanes)
		}
	}
}

// orWord is an atomic OR that leaves a cache line it would not change alone.
func orWord(addr *uint64, lanes uint64) {
	for old := atomic.LoadUint64(addr); old|lanes != old; old = atomic.LoadUint64(addr) {
		if atomic.CompareAndSwapUint64(addr, old, old|lanes) {
			return
		}
	}
}

// claim moves v's mask into dst, leaving it zero, and returns how many lanes
// it held.
func (m *laneMask) claim(v int, dst []uint64) (lanes int) {
	if m == nil {
		dst[0] = 1
		return 1
	}
	for w, addr := 0, m.of(v); w < len(addr); w++ {
		dst[w] = 0
		if atomic.LoadUint64(&addr[w]) != 0 {
			dst[w] = atomic.SwapUint64(&addr[w], 0)
			lanes += bits.OnesCount64(dst[w])
		}
	}
	return lanes
}

// laneGroup is the lanes of a batch that run one kind of kernel, so an edge
// runs one fused, devirtualized relaxation loop per kind instead of a switch
// and two indirect calls per lane. A homogeneous batch — the common case — is
// one group.
type laneGroup struct {
	kind  queries.OpKind
	lanes []int32
	mask  []uint64 // lanes as a bitmask, a word per 64 lanes of the batch; static groups only
}

// groupLanes groups every lane of a batch by kernel kind (BatchSetup.groups).
func groupLanes(kinds []queries.OpKind) (groups []laneGroup) {
	var byKind [queries.OpViterbi + 1]laneGroup
	for i, k := range kinds {
		g := &byKind[k]
		if g.mask == nil {
			g.kind, g.mask = k, make([]uint64, (len(kinds)+63)/64)
		}
		g.lanes = append(g.lanes, int32(i))
		g.mask[i>>6] |= 1 << (i & 63)
	}
	for _, g := range byKind {
		if len(g.lanes) > 0 {
			groups = append(groups, g)
		}
	}
	return groups
}

// laneScratch is a worker's view of one source vertex: a snapshot of its row
// in the lanes being relaxed, those lanes as the groups relax runs over, and
// the mask words claim and relax fill.
type laneScratch struct {
	src      []queries.Value
	cand     []queries.Value // candidate row of the row kernels
	claimed  []uint64        // the lanes claimed from the vertex's mask
	improved []uint64        // the lanes relax improved; zero again once marked
	groups   []laneGroup
	row      queries.OpKind // the kind to run the row kernel for; OpCustom: relax groups lane by lane
	lanes    []int32        // backing of part's lanes
	part     []laneGroup    // backing of groups when fewer than all lanes changed
}

func newLaneScratch(st *BatchSetup) *laneScratch {
	rows := make([]queries.Value, 2*st.B)
	words := make([]uint64, 2*((st.B+63)/64))
	return &laneScratch{
		src:      rows[:st.B:st.B],
		cand:     rows[st.B:],
		claimed:  words[: len(words)/2 : len(words)/2],
		improved: words[len(words)/2:],
		lanes:    make([]int32, 0, st.B),
		part:     make([]laneGroup, 0, len(st.groups)),
	}
}

// claim takes the lanes that changed at v since it last pushed, snapshots v's
// row in them — after the claim, see laneMask — and groups them for relax. It
// returns how many there are.
func (s *laneScratch) claim(p *obliviousPolicy, v int) (changed int) {
	st := p.st
	if changed = p.dirty.claim(v, s.claimed); changed == 0 {
		return 0
	}
	row := st.Cell(v, 0)
	if changed == st.B {
		st.Vals.LoadRow(row, s.src)
		s.groups, s.row = st.groups, st.rowKind
		return changed
	}
	s.row = queries.OpCustom
	s.lanes, s.part = s.lanes[:0], s.part[:0]
	for _, g := range st.groups {
		from := len(s.lanes)
		for w, m := range s.claimed {
			for m &= g.mask[w]; m != 0; m &= m - 1 {
				i := w<<6 + bits.TrailingZeros64(m)
				s.src[i] = st.Vals.Get(row + i)
				s.lanes = append(s.lanes, int32(i))
			}
		}
		if len(s.lanes) > from {
			s.part = append(s.part, laneGroup{kind: g.kind, lanes: s.lanes[from:]})
		}
	}
	s.groups = s.part
	return changed
}

// relax relaxes the snapshotted vertex's edge to d (weight w) in every lane
// of s.groups, adds the lanes that improved to s.improved — zero when it is
// called: mark has taken what an earlier edge left — and returns how many
// there are. When the groups are every lane of a batch with a row kernel
// (BatchSetup.rowKind) — all its lanes changed — the edge is one pass over d's
// row; otherwise it is queries.RelaxImprove with the kind switch hoisted out
// of the lane loop.
func (s *laneScratch) relax(st *BatchSetup, d int, w graph.Weight) (improved int) {
	row := st.Cell(d, 0)
	if s.row != queries.OpCustom {
		queries.RelaxImproveRow(st.Vals, s.row, row, s.src, s.cand, w, s.improved)
		for _, m := range s.improved {
			improved += bits.OnesCount64(m)
		}
		return improved
	}
	wv := queries.Value(w)
	for gi := range s.groups {
		g := &s.groups[gi]
		switch g.kind {
		case queries.OpBFS:
			for _, i := range g.lanes {
				if st.Vals.ImproveMin(row+int(i), s.src[i]+1) {
					improved += s.hit(i)
				}
			}
		case queries.OpSSSP:
			for _, i := range g.lanes {
				if st.Vals.ImproveMin(row+int(i), s.src[i]+wv) {
					improved += s.hit(i)
				}
			}
		case queries.OpSSWP:
			for _, i := range g.lanes {
				if st.Vals.ImproveMax(row+int(i), min(s.src[i], wv)) {
					improved += s.hit(i)
				}
			}
		case queries.OpSSNP:
			for _, i := range g.lanes {
				if st.Vals.ImproveMin(row+int(i), max(s.src[i], wv)) {
					improved += s.hit(i)
				}
			}
		case queries.OpViterbi:
			for _, i := range g.lanes {
				if st.Vals.ImproveMax(row+int(i), s.src[i]/wv) {
					improved += s.hit(i)
				}
			}
		default:
			for _, i := range g.lanes {
				if st.Vals.Improve(row+int(i), st.Kernels[i].Relax(s.src[i], w), st.Kernels[i].Better) {
					improved += s.hit(i)
				}
			}
		}
	}
	return improved
}

// hit records that lane i improved; it returns 1, the improvement it counts.
func (s *laneScratch) hit(i int32) int {
	s.improved[i>>6] |= 1 << (i & 63)
	return 1
}
