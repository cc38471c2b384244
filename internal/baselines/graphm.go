package baselines

import (
	"sort"

	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// GraphM models GraphM (Zhao et al., SC'19), which is built on the
// out-of-core system GridGraph: the graph is cut into partitions sized to
// the cache, and in every super-iteration each partition is streamed once
// while *all* jobs (queries) relevant to it are processed against it — a
// "partition-centric" sharing of graph accesses, in contrast to Glign's
// "iteration-centric" alignment. Per-query frontiers are kept separately,
// as each job owns its state in GraphM.
type GraphM struct {
	// PartitionBytes is the target size of one partition's edge block
	// (default 256 KiB — a cache-resident block, as GridGraph sizes them).
	PartitionBytes int64
}

// Name implements core.Engine.
func (GraphM) Name() string { return "GraphM" }

// partitionRanges cuts the vertex space into contiguous ranges whose edge
// blocks are roughly target bytes (4 bytes per target + 4 per weight).
func partitionRanges(g *graph.Graph, target int64) [][2]int {
	if target <= 0 {
		target = 256 << 10
	}
	bytesPerEdge := int64(4)
	if g.Weighted() {
		bytesPerEdge = 8
	}
	n := g.NumVertices()
	var parts [][2]int
	lo := 0
	var acc int64
	for v := 0; v < n; v++ {
		acc += int64(g.OutDegree(graph.VertexID(v))) * bytesPerEdge
		if acc >= target {
			parts = append(parts, [2]int{lo, v + 1})
			lo = v + 1
			acc = 0
		}
	}
	if lo < n {
		parts = append(parts, [2]int{lo, n})
	}
	return parts
}

// Run implements core.Engine.
func (e GraphM) Run(g *graph.Graph, batch []queries.Query, opt core.Options) (*core.BatchResult, error) {
	return core.Drive(g, batch, opt, func(st *core.BatchSetup) core.LanePolicy {
		return &graphmPolicy{
			g: g, st: st, parts: partitionRanges(g, e.PartitionBytes),
			LaneFrontiers: core.NewLaneFrontiers(st.N, st.B),
			active:        make([][]graph.VertexID, st.B),
		}
	})
}

// graphmPolicy keeps B separate frontier pairs — each job owns its state —
// and no unified frontier: an iteration is a pass over the partitions;
// injecting and advancing are the frontier pairs' own Inject and Advance.
type graphmPolicy struct {
	g     *graph.Graph
	st    *core.BatchSetup
	parts [][2]int
	core.LaneFrontiers
	active [][]graph.VertexID
}

// Step materializes the sparse views up front: the partition workers only
// read them. With no unified frontier, the reported frontier size is the sum
// of the per-job frontier sizes — a vertex active for k jobs counts k times,
// unlike the other engines' union count (kept as GraphM always reported it).
func (p *graphmPolicy) Step() core.Step {
	size := 0
	for i, s := range p.Cur {
		p.active[i] = s.Sparse()
		size += len(p.active[i])
	}
	return core.Step{Size: size, Total: len(p.parts), Grain: 1, Body: p.stream}
}

// visit is the partition-centric order over parts: stream each edge block
// once and run every job's active vertices of that block against it (active
// holds each job's sorted active vertices). Blocks are processed in
// parallel; within a block, jobs run one after another (each job is
// independent in GraphM).
func visit(parts [][2]int, active [][]graph.VertexID, job func(v graph.VertexID, lane int)) {
	for _, part := range parts {
		for lane, act := range active {
			// Binary-search the slice of active vertices inside this partition.
			start := sort.Search(len(act), func(i int) bool { return int(act[i]) >= part[0] })
			for _, v := range act[start:] {
				if int(v) >= part[1] {
					break
				}
				job(v, lane)
			}
		}
	}
}

func (p *graphmPolicy) stream(plo, phi int) (c core.Counts) {
	st := p.st
	visit(p.parts[plo:phi], p.active, func(v graph.VertexID, lane int) {
		sv := st.Vals.Get(st.Cell(int(v), lane))
		nbrs, ws := p.g.OutEdges(v)
		// Per-job edge passes: every edge visit is one lane relaxation.
		c.Edges += int64(len(nbrs))
		c.Relaxes += int64(len(nbrs))
		for j, d := range nbrs {
			if queries.RelaxImprove(st.Vals, st.Kinds[lane], st.Kernels[lane], st.Cell(int(d), lane), sv, core.WeightAt(ws, j)) {
				c.Writes++
				p.Next[lane].AddSync(d)
			}
		}
	})
	return c
}

// VisitOrder is what the cache-trace model of a job-per-query design asks for
// (see core.Drive): one iteration's visits in partition-centric order.
func (p *graphmPolicy) VisitOrder(active [][]graph.VertexID, job func(v graph.VertexID, lane int)) {
	visit(p.parts, active, job)
}

var _ core.Engine = GraphM{}
