package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/glign/glign/internal/frontier"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// unified is a synchronized engine over one unified frontier: each iteration
// pushes every member once, in the lanes its design's activation state claims
// for it, through one push body. The designs of paper Figure 5 differ only in
// that state:
//
//   - Glign-Intra (Figure 5-c) keeps no per-query activation. The paper
//     evaluates an active vertex for every query in the batch — safe because
//     all kernels are monotone (Theorem 3.2). This engine takes that argument
//     one step further: a lane whose value has not changed since the vertex
//     last pushed proposes exactly what it proposed then, so an active vertex
//     relaxes only the lanes that changed (laneMask) — which also skips every
//     lane that has not reached it, whose value is still the kernel identity.
//   - Krill (Chen et al., SC'21) fuses the B separate frontiers into a
//     per-vertex query bitmask, so a vertex's activation state for all queries
//     shares one cache line: a laneMask pair, claimed from the current half
//     and marked into the next, so a lane that reaches a vertex is pushed in
//     the next iteration, not in this one.
//   - Ligra-C, the paper's extended Ligra baseline (Figure 5-b, also SimGQ's
//     design), keeps B separate frontiers (laneFrontiers) under the unified
//     one and probes every query's at each active vertex. The B extra bitmaps
//     and the two-level check are the costs Glign's frontier eliminates.
//
// With Options.Alignment set, sources are injected at their scheduled global
// iterations, which is exactly Glign-Inter's "delayed start" (paper §3.3).
//
// A Glign-Intra batch whose every lane is BFS runs as hop lanes instead (see
// hopPush), the bit-parallel multi-source BFS of iBFS and MS-BFS: its lanes
// advance as lane-bit words and read no value.
type unified struct {
	name   string
	design design
}

// GlignIntra is the query-oblivious frontier engine ("Glign-Intra" in the
// paper's tables; also the execution engine under Glign-Inter, Glign-Batch
// and full Glign, which differ only in scheduling).
var GlignIntra Engine = unified{"Glign-Intra", unionOnly}

// LigraC is the two-level frontier engine ("Ligra-C" in the paper's tables).
var LigraC Engine = unified{"Ligra-C", twoLevels}

// Krill is the per-vertex query-mask engine. Batches are limited to
// krillMaxQueries, matching the paper's default batch size.
var Krill Engine = unified{"Krill", queryMasks}

// krillMaxQueries is the largest batch Krill evaluates: the Krill system's
// query mask is one word a vertex, which is what FootprintOf counts.
const krillMaxQueries = 64

func (e unified) Name() string { return e.name }

func (e unified) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	// The Jacobi evaluator convergence kernels take has no mask to fill.
	if e.design == queryMasks && len(batch) > krillMaxQueries && !queries.AnyConvergent(batch) {
		return nil, fmt.Errorf("core: Krill engine supports at most %d queries per batch, got %d",
			krillMaxQueries, len(batch))
	}
	return runUnified(g, batch, opt, e.design, -1)
}

// runUnified is the Run of design d's engine with the telemetry records'
// Query (see drive): convergence kernels have no frontier to drive and take
// the shared lane-fused Jacobi evaluator (the batching layers split mixed
// buffers by paradigm); everything else is drive on d's policy — at
// Glign-Intra, on hop lanes when every lane is BFS and no Tracer models the
// run.
func runUnified(g *graph.Graph, batch []queries.Query, opt Options, d design, query int) (*BatchResult, error) {
	if queries.AnyConvergent(batch) {
		return runJacobi(g, batch, opt, query)
	}
	var p *unifiedPolicy
	res, err := drive(g, batch, opt, func(st *batchSetup) lanePolicy {
		if d == unionOnly && opt.Tracer == nil && len(st.groups) == 1 && st.groups[0].kind == queries.OpBFS {
			d = hopLanes
		}
		p = newUnifiedPolicy(g, st, opt.Arena, d)
		return p
	}, query)
	// At a fixed point the push state is clean but for the hop lanes' seen
	// mask, a word a vertex at up to 64 lanes, which is cleared, and serves
	// the next batch; a capped run can stop with members in its frontier and
	// bits in its masks, so its state is dropped. drive's last act is a Step,
	// so active holds the members the run stopped with.
	if p != nil && len(p.active) == 0 && opt.Arena != nil {
		if p.seen != nil {
			clear(p.seen.words)
		}
		opt.Arena.releasePush(p.pushState)
	}
	return res, err
}

func newUnifiedPolicy(g *graph.Graph, st *batchSetup, arena *Arena, d design) *unifiedPolicy {
	p := &unifiedPolicy{
		g: g, st: st, design: d,
		pushState: arena.takePush(st.N, st.slots),
		scratch:   make([]*laneScratch, st.slots),
	}
	switch d {
	case unionOnly:
		p.mask = p.takeMask(0, st.N, st.B)
		p.nextMask = p.mask
	case queryMasks, hopLanes:
		p.mask, p.nextMask = p.takeMask(0, st.N, st.B), p.takeMask(1, st.N, st.B)
	case twoLevels:
		p.lanes = newLaneFrontiers(st.N, st.B)
	}
	p.body = p.push
	if d == hopLanes {
		p.seen = p.takeWords(2, st.N, st.B)
		p.setLevel(st.Alignment, 0)
		p.body = p.hopPush
	}
	return p
}

// Frontiers evaluates q alone on workers, as GlignIntra's one-query batch, and
// returns the frontier entering each of its iterations: the per-query history
// the affinity analyses of internal/align are computed from.
func Frontiers(g *graph.Graph, q queries.Query, workers int) ([]*frontier.Subset, error) {
	var rec *recorder
	res, err := drive(g, []queries.Query{q}, Options{Workers: workers}, func(st *batchSetup) lanePolicy {
		rec = &recorder{unifiedPolicy: newUnifiedPolicy(g, st, nil, unionOnly)}
		return rec
	}, -1)
	if err != nil {
		return nil, err
	}
	return rec.frontiers[:res.GlobalIterations], nil
}

// recorder is Glign-Intra's policy keeping a copy of the frontier at
// every Step — one more than drive runs, when the last frontier is empty.
type recorder struct {
	*unifiedPolicy
	frontiers []*frontier.Subset
}

func (r *recorder) Step() step {
	r.frontiers = append(r.frontiers, r.cur.Clone())
	return r.unifiedPolicy.Step()
}

// unifiedPolicy keeps the unified frontier pair and its design's lane state.
// Its step is a push over the frontier's members; the pushers fill the next
// frontier in their slots' private accumulators, and Advance merges them.
type unifiedPolicy struct {
	g      *graph.Graph
	st     *batchSetup
	design design // unionOnly, queryMasks or twoLevels
	*pushState
	active []graph.VertexID
	// mask is the lane mask a push claims from and nextMask the one it marks
	// into: Glign-Intra's one mask is both, Krill's pair and the hop lanes'
	// swap at Advance, and Ligra-C keeps none.
	mask, nextMask *laneMask
	lanes          laneFrontiers                 // Ligra-C's
	scratch        []*laneScratch                // a pool slot's, made on the slot's first push; its next is accs[slot]
	body           func(slot, lo, hi int) counts // push or hopPush, bound once: a method value allocates
	// The hop lanes' (see hopPush): the lanes that have reached each vertex
	// and the iterations Advance has run.
	seen *laneMask
	iter int
}

func (p *unifiedPolicy) Inject(src graph.VertexID, lane int) {
	if p.design == twoLevels {
		p.lanes.Inject(src, lane)
	} else {
		p.mask.set(int(src), lane)
	}
	p.cur.Add(src)
}

func (p *unifiedPolicy) Step() step {
	p.active = p.cur.Sparse()
	return step{Size: len(p.active), Total: len(p.active), Body: p.body}
}

// Advance runs after the pushers joined (pool.ForSlots returned), so every
// accumulator a slot filled is settled. Krill's mask pair turns over with no
// clearing pass: the pushes claimed every bit of the current half, which
// only the unified frontier's members had. Glign-Intra's one mask is both
// halves, so the swap leaves it as it is.
func (p *unifiedPolicy) Advance() {
	for _, s := range p.scratch {
		if s != nil {
			p.next.Merge(s.next)
		}
	}
	p.cur, p.next = p.next, p.cur
	p.next.Clear()
	p.mask, p.nextMask = p.nextMask, p.mask
	switch p.design {
	case twoLevels:
		p.lanes.Advance()
	case hopLanes:
		p.iter++
		p.setLevel(p.st.Alignment, p.iter)
	}
}

// push relaxes every out-edge of the active vertices [lo, hi) in the lanes
// it claims for the vertex, marks each destination it improved in the lanes
// that improved there, and adds it to its slot's accumulator. A vertex with
// no lane to claim — at Glign-Intra, one that pushed its news earlier in the
// iteration that activated it — is skipped.
func (p *unifiedPolicy) push(slot, lo, hi int) counts {
	st, s := p.st, p.slot(slot)
	var c counts
	for _, v := range p.active[lo:hi] {
		changed := s.claim(p, int(v))
		if changed == 0 {
			continue
		}
		nbrs, ws := p.g.OutEdges(v)
		c.Edges += int64(len(nbrs))
		c.Relaxes += int64(len(nbrs) * changed)
		for j, d := range nbrs {
			if improved := s.relax(st, int(d), weightAt(ws, j)); improved > 0 {
				c.Writes += int64(improved)
				if p.design == twoLevels {
					p.lanes.mark(d, s.improved)
				} else {
					p.nextMask.mark(int(d), s.improved)
				}
				s.next.Add(d)
			}
		}
	}
	return c
}

// slot returns the laneScratch of pool slot slot, made on its first push.
func (p *unifiedPolicy) slot(slot int) *laneScratch {
	s := p.scratch[slot]
	if s == nil {
		acc := &p.accs[slot]
		if *acc == nil {
			*acc = frontier.NewAccumulator(p.st.N)
		}
		s = newLaneScratch(p.st, *acc)
		p.scratch[slot] = s
	}
	return s
}

// hopPush is push on hop lanes, the design of a Glign-Intra batch whose
// every lane is BFS. A BFS lane's value at a vertex is the iteration that
// first reaches it, less the lane's start, so the lanes advance level by
// level and none needs a value to find its next frontier. Each vertex keeps
// the lanes that have reached it (seen) beside a claim/next mask pair that
// turns over at Advance, as Krill's does. An active vertex claims the lanes
// that reached it in the last iteration and pushes those it had not seen
// before (arrive); an edge to d then only tests them against d's seen words
// and ORs the missing ones into d's next mask. The value array is never
// read: the one claimer of a vertex writes each newly arrived lane's value
// once, from the level row. A lane that is marked at d after d's claimer
// recorded it — both reached d in one iteration — is dropped by the claim in
// the next, so a vertex pushes each lane once, at its level.
//
// What the design gives up is the single-buffered mask's ride-along, where
// a lane that reaches a vertex before the vertex pushes joins that push:
// every lane waits an iteration at each vertex, so more edges are visited,
// each of them a word test.
func (p *unifiedPolicy) hopPush(slot, lo, hi int) counts {
	s, seen, w := p.slot(slot), p.seen.words, p.seen.w
	var next []atomic.Uint64 // nil at one lane, whose frontier bit is its lane bit
	if p.nextMask != nil {
		next = p.nextMask.words
	}
	var c counts
	for _, v := range p.active[lo:hi] {
		fresh := s.arrive(p, int(v))
		if fresh == 0 {
			continue
		}
		nbrs, _ := p.g.OutEdges(v)
		c.Edges += int64(len(nbrs))
		c.Relaxes += int64(len(nbrs) * fresh)
		c.Writes += int64(fresh)
		if w == 1 { // up to 64 lanes: a word a vertex
			lanes := s.claimed[0]
			for _, d := range nbrs {
				if missing := lanes &^ seen[d].Load(); missing != 0 {
					if next != nil {
						orWord(&next[d], missing)
					}
					s.next.Add(d)
				}
			}
			continue
		}
		for _, d := range nbrs {
			at, reached := int(d)*w, false
			for k, lanes := range s.claimed {
				if missing := lanes &^ seen[at+k].Load(); missing != 0 {
					if next != nil {
						orWord(&next[at+k], missing)
					}
					reached = true
				}
			}
			if reached {
				s.next.Add(d)
			}
		}
	}
	return c
}

// laneFrontiers is B separate frontier pairs, one per query lane: Cur holds
// the vertices active for each lane this iteration, Next collects the next
// iteration's.
type laneFrontiers struct {
	Cur, Next []*frontier.Subset
}

// newLaneFrontiers returns b empty frontier pairs over n vertices.
func newLaneFrontiers(n, b int) laneFrontiers {
	l := laneFrontiers{make([]*frontier.Subset, b), make([]*frontier.Subset, b)}
	for i := range l.Cur {
		l.Cur[i], l.Next[i] = frontier.New(n), frontier.New(n)
	}
	return l
}

// Inject activates src for lane.
func (l *laneFrontiers) Inject(src graph.VertexID, lane int) { l.Cur[lane].Add(src) }

// Advance makes Next current and recycles the old frontiers as the new Next.
func (l *laneFrontiers) Advance() {
	l.Cur, l.Next = l.Next, l.Cur
	for _, s := range l.Next {
		s.Clear()
	}
}

// claim sets in dst, a word per 64 lanes, the lanes whose current frontier
// holds v — the second-level check, B scattered bitmap reads — and returns
// how many there are.
func (l *laneFrontiers) claim(v graph.VertexID, dst []uint64) (lanes int) {
	clear(dst)
	for i, s := range l.Cur {
		if s.Contains(v) {
			dst[i>>6] |= 1 << (i & 63)
			lanes++
		}
	}
	return lanes
}

// mark adds v to the next frontier of every lane improved holds, leaving
// improved zero.
func (l *laneFrontiers) mark(v graph.VertexID, improved []uint64) {
	for w, lanes := range improved {
		improved[w] = 0
		for ; lanes != 0; lanes &= lanes - 1 {
			l.Next[w<<6+bits.TrailingZeros64(lanes)].Add(v)
		}
	}
}

// laneMask is the one piece of per-lane state Glign-Intra keeps: a bit per
// (vertex, lane) — ceil(B/64) words a vertex, 1/64 of the value array at
// B=64 — set when the lane's value at the vertex changed and the vertex has
// not pushed it yet. It is single-buffered: a lane that arrives at a vertex
// before the vertex pushes in the same iteration rides along with that push.
// Krill keeps a pair, one a frontier, whose bits say which queries a vertex
// is active for: a push claims from the current one and marks into the next.
//
// Exactness rests on two orderings. A writer installs the value (CAS), then
// marks, then adds the vertex to its private accumulator, which pool.For's
// join publishes before Advance merges it into the next frontier; a pusher
// claims (swaps the words to zero), then loads the row. So a change is either
// marked before the claim — and the load, which follows the claim, sees it —
// or marked after, and then the bit stands and the vertex is in the next
// frontier to push it. Every marked vertex is in the frontier its marker
// fills and every frontier member is claimed, so at a fixed point, where the
// frontier is empty, the mask (and either of Krill's) is all-zero — which is
// what lets an Arena hand it to the owner's next batch with no clearing pass,
// where a batch of two or three queries, for which a word a vertex is a good
// part of a row, would otherwise allocate one.
//
// A batch of one query keeps none (a nil *laneMask, whose methods claim the
// one lane every time and mark nothing): its frontier bit is its lane bit.
type laneMask struct {
	w     int // words a vertex
	words []atomic.Uint64
}

func (m *laneMask) of(v int) []atomic.Uint64 { return m.words[v*m.w:][:m.w] }

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
func orWord(word *atomic.Uint64, lanes uint64) {
	for old := word.Load(); old|lanes != old; old = word.Load() {
		if word.CompareAndSwap(old, old|lanes) {
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
	for w, at := 0, v*m.w; w < m.w; w++ {
		dst[w] = 0
		if word := &m.words[at+w]; word.Load() != 0 {
			dst[w] = word.Swap(0)
			lanes += bits.OnesCount64(dst[w])
		}
	}
	return lanes
}

// take is claim for a mask that nothing marks while it is claimed from — the
// claim half of the hop lanes' pair, which only the iteration before marked,
// its writes published by that iteration's join: it reads v's words and
// clears them with plain stores instead of a locked swap.
func (m *laneMask) take(v int, dst []uint64) (lanes int) {
	if m == nil {
		dst[0] = 1
		return 1
	}
	words := m.of(v)
	for w := range words {
		dst[w] = words[w].Load()
		lanes += bits.OnesCount64(dst[w])
	}
	clear(words)
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

// groupLanes groups every lane of a batch by kernel kind (batchSetup.groups).
func groupLanes(kinds []queries.OpKind) (groups []laneGroup) {
	var byKind [queries.OpViterbi + 1]laneGroup
	for i, k := range kinds {
		g := &byKind[k]
		if g.mask == nil {
			g.kind, g.mask, g.lanes = k, make([]uint64, (len(kinds)+63)/64), make([]int32, 0, len(kinds))
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

// laneScratch is a pool slot's view of one source vertex: a snapshot of its
// row in the lanes being relaxed, those lanes as the groups relax runs over,
// and the mask words claim and relax fill — and the slot's share of the next
// frontier.
type laneScratch struct {
	src      []queries.Value
	cand     []queries.Value // candidate row of the row kernels
	claimed  []uint64        // the lanes claimed from the vertex's mask
	improved []uint64        // the lanes relax improved; zero again once marked
	groups   []laneGroup
	row      queries.OpKind // the kind to run the row kernel for; OpCustom: relax groups lane by lane
	lanes    []int32        // backing of part's lanes
	part     []laneGroup    // backing of groups when fewer than all lanes changed
	next     *frontier.Accumulator
}

func newLaneScratch(st *batchSetup, next *frontier.Accumulator) *laneScratch {
	rows := make([]queries.Value, 2*st.B)
	words := make([]uint64, 2*((st.B+63)/64))
	return &laneScratch{
		src:      rows[:st.B:st.B],
		cand:     rows[st.B:],
		claimed:  words[: len(words)/2 : len(words)/2],
		improved: words[len(words)/2:],
		lanes:    make([]int32, 0, st.B),
		part:     make([]laneGroup, 0, len(st.groups)),
		next:     next,
	}
}

// claim takes the lanes p's design pushes v in — at Glign-Intra, those that
// changed since v last pushed — snapshots v's row in them — after the claim,
// see laneMask — and groups them for relax. It returns how many there are.
func (s *laneScratch) claim(p *unifiedPolicy, v int) (changed int) {
	st := p.st
	if p.design == twoLevels {
		changed = p.lanes.claim(graph.VertexID(v), s.claimed)
	} else {
		changed = p.mask.claim(v, s.claimed)
	}
	if changed == 0 {
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
// (batchSetup.rowKind) — all its lanes changed — the edge is one pass over d's
// row; otherwise it is queries.RelaxImprove with the kind switch hoisted out
// of the lane loop.
func (s *laneScratch) relax(st *batchSetup, d int, w graph.Weight) (improved int) {
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

// arrive claims the lanes that reached v in the last iteration, keeps in
// s.claimed those v had not seen, records them in v's seen words, writes
// their values from the level row and returns how many there are. v is one
// member of the frontier, so its pusher is the only writer of its seen words
// and its row in the iteration.
func (s *laneScratch) arrive(p *unifiedPolicy, v int) (fresh int) {
	if p.mask.take(v, s.claimed) == 0 {
		return 0
	}
	seen := p.seen.of(v)
	for k, lanes := range s.claimed {
		old := seen[k].Load()
		lanes &^= old
		s.claimed[k] = lanes
		if lanes != 0 {
			seen[k].Store(old | lanes)
			fresh += bits.OnesCount64(lanes)
		}
	}
	if fresh > 0 {
		p.st.Vals.CopyLanes(p.st.Cell(v, 0), p.level, s.claimed)
	}
	return fresh
}

// hit records that lane i improved; it returns 1, the improvement it counts.
func (s *laneScratch) hit(i int32) int {
	s.improved[i>>6] |= 1 << (i & 63)
	return 1
}
