package core

import (
	"sort"

	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
)

// graphM models GraphM (Zhao et al., SC'19), which is built on the
// out-of-core system GridGraph: the graph is cut into partitions sized to
// the cache, and in every super-iteration each partition is streamed once
// while *all* jobs (queries) relevant to it are processed against it — a
// "partition-centric" sharing of graph accesses, in contrast to Glign's
// "iteration-centric" alignment. Per-query frontiers are kept separately,
// as each job owns its state in GraphM.
type graphM struct {
	// partitionBytes is the target size of one partition's edge block; 0
	// means 256 KiB — a cache-resident block, as GridGraph sizes them.
	partitionBytes int64
}

// GraphM is the partition-centric engine ("GraphM" in the paper's Table 5).
var GraphM Engine = graphM{}

func (graphM) Name() string { return "GraphM" }

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

// Run has no Jacobi path: prepareBatch refuses a convergence kernel.
func (e graphM) Run(g *graph.Graph, batch []queries.Query, opt Options) (*BatchResult, error) {
	return drive(g, batch, opt, func(st *batchSetup, ps *pushState) lanePolicy {
		return &graphmPolicy{
			g: g, st: st, parts: partitionRanges(g, e.partitionBytes),
			laneFrontiers: ps.takeLanes(st.N, st.B),
			active:        make([][]graph.VertexID, st.B),
		}
	}, -1)
}

// graphmPolicy keeps B separate frontier pairs — each job owns its state —
// and no unified frontier: an iteration is a pass over the partitions;
// injecting and advancing are the frontier pairs' own Inject and Advance.
type graphmPolicy struct {
	g     *graph.Graph
	st    *batchSetup
	parts [][2]int
	laneFrontiers
	active [][]graph.VertexID
}

// Step materializes the sparse views up front: the partition workers only
// read them. With no unified frontier, the reported frontier size is the sum
// of the per-job frontier sizes — a vertex active for k jobs counts k times,
// unlike the other engines' union count (kept as GraphM always reported it).
func (p *graphmPolicy) Step() step {
	size := 0
	for i, s := range p.Cur {
		p.active[i] = s.Sparse()
		size += len(p.active[i])
	}
	return step{Size: size, Total: len(p.parts), Grain: 1, Body: p.stream}
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

func (p *graphmPolicy) stream(_, plo, phi int) (c counts) {
	st := p.st
	visit(p.parts[plo:phi], p.active, func(v graph.VertexID, lane int) {
		sv := st.Vals.Get(st.Cell(int(v), lane))
		nbrs, ws := p.g.OutEdges(v)
		// Per-job edge passes: every edge visit is one lane relaxation.
		c.Edges += int64(len(nbrs))
		c.Relaxes += int64(len(nbrs))
		for j, d := range nbrs {
			if queries.RelaxImprove(st.Vals, st.Kinds[lane], st.Kernels[lane], st.Cell(int(d), lane), sv, weightAt(ws, j)) {
				c.Writes++
				p.Next[lane].Add(d)
			}
		}
	})
	return c
}

// visitOrder is what the cache-trace model walks (tracing.go): the visits of
// the frontiers Step materialized, in partition-centric order.
func (p *graphmPolicy) visitOrder(job func(v graph.VertexID, lane int)) {
	visit(p.parts, p.active, job)
}
