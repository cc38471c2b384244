// Package core implements the concurrent batch-evaluation engines of this
// reproduction — the paper's primary contribution and every comparator of its
// evaluation (Table 5).
//
// The synchronized frontier engines are one traversal loop, drive, plus a
// lanePolicy: the per-query activation state that, per paper Figure 5, is all
// that distinguishes them. The three unified-frontier engines (unified.go) are
// one policy with one push body, and differ only in the lane state it claims a
// vertex's lanes from and marks an improved destination's into:
//
//   - GlignIntra: Glign's query-oblivious frontier (Figure 5-c, §3.2) — one
//     frontier for all queries, and beside it one mask of the lanes whose
//     value changed since the vertex last pushed: an active vertex is
//     relaxed for those, not for all B. A batch whose every lane is BFS runs
//     as hop lanes instead (hopPush): lane-bit words advanced level by
//     level, each value written once and none read.
//   - LigraC: unified + B separate frontiers (Figure 5-b, the design of
//     SimGQ), probed at every active vertex.
//   - Krill: a per-vertex query mask pair instead of B frontiers.
//
// GraphM (graphm.go, Zhao et al., SC'19) is the fourth policy: B separate
// frontiers and no unified one, each iteration streaming cache-sized CSR
// partitions past every job active in them.
//
// drive owns what they share: delayed-start injection from the alignment
// vector (paper Definition 3.3, the mechanism of Glign-Inter), termination,
// iteration bookkeeping, the parallel dispatch and the telemetry record. A
// single query is a batch of one: LigraS is drive at B=1, each query of a
// batch in turn as GlignIntra's one-query batch (runApart), Congra runs the
// same one-query batches concurrently (§2.2's asynchronous design), and the
// query-oblivious frontier at one query is the single-query Ligra engine —
// its frontier bit is its lane bit. QueryParallel (§4.1) shares nothing: each
// query is internal/oracle's serial ReferenceRun on a pool worker. Frontiers
// records a one-query batch's frontier history for internal/align. runJacobi
// is the one Jacobi evaluator, with a fused round for PageRank batches, that
// every engine with a Jacobi path routes iterate-to-convergence kernels to
// (LigraS and QueryParallel one query at a time).
//
// All engines share one value array in the paper's §3.5 layout,
// ValArray[v*B+i]: a row of exactly B cells per vertex (Cell). The
// query-oblivious engine reads and relaxes rows, whole or in the lanes that
// changed; BatchResult hands the
// results out per query (QueryValues) or all at once (AllQueryValues). With
// Options.Arena set the array — with the Jacobi state and the push state of
// the frontier engines, which drive takes and gives back — passes from one
// batch of its owner to the next (Arena; BatchResult.Release gives the array
// back) instead of being allocated per batch. With Options.Tracer set, drive runs a serial model of the
// policy's design (tracing.go) wrapped around the policy, so the production
// bodies carry no tracer.
//
// When Options.Telemetry is set, every engine but QueryParallel records one
// IterationStat per global iteration — frontier size, push/jacobi mode,
// active and injected queries, edges processed, lane relaxations, value
// writes — at a cost of one record per iteration, never per edge (see
// internal/telemetry and OBSERVABILITY.md).
package core
