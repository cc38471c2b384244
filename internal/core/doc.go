// Package core implements the concurrent batch-evaluation engines at the
// heart of this reproduction — the paper's primary contribution and its
// baselines.
//
// The frontier engines are one traversal loop, Drive, plus a LanePolicy each:
// the per-query activation state that, per paper Figure 5, is all that
// distinguishes them.
//
//   - GlignIntra (oblivious.go): Glign's query-oblivious frontier (Figure
//     5-c, §3.2) — one frontier for all queries, and beside it one mask of
//     the lanes whose value changed since the vertex last pushed: an active
//     vertex is relaxed for those, not for all B.
//   - LigraC (twolevel.go): unified + B separate frontiers (Figure 5-b, the
//     design of Krill and SimGQ).
//   - Krill (krill.go): per-vertex query bitmasks instead of B frontiers.
//   - GraphM's partition-centric policy plugs into Drive from
//     internal/baselines.
//
// Drive owns what they share: delayed-start injection from the alignment
// vector (paper Definition 3.3, the mechanism of Glign-Inter), termination,
// iteration bookkeeping, the parallel dispatch and the telemetry record. A
// single query is a batch of one: LigraS is Drive at B=1, each query of a
// batch in turn as GlignIntra's one-query batch (RunApart; Congra runs the
// same batches concurrently), and the query-oblivious frontier at one query
// is the single-query Ligra engine — its frontier bit is its lane bit.
// Frontiers records such a batch's frontier history for internal/align.
// RunConvergenceBatch is the one Jacobi evaluator, with a fused round for
// PageRank batches, that every engine routes iterate-to-convergence kernels
// to (LigraS one query at a time).
//
// All engines share one value array in the paper's §3.5 layout,
// ValArray[v*B+i]: a row of exactly B cells per vertex (Cell). The
// query-oblivious engine reads and relaxes rows, whole or in the lanes that
// changed; BatchResult hands the
// results out per query (QueryValues) or all at once (AllQueryValues). With
// Options.Arena set the array — with the Jacobi state and the changed-lane
// mask — passes from one batch of its owner to the next (Arena;
// BatchResult.Release gives it back) instead of being allocated per batch. With
// Options.Tracer set, Drive runs a serial model of the policy's design
// (tracing.go) in its place, so the production bodies carry no tracer.
//
// When Options.Telemetry is set, every engine records one IterationStat per
// global iteration — frontier size, push/jacobi mode, active and injected
// queries, edges processed, lane relaxations, value writes — at a cost of
// one record per iteration, never per edge (see internal/telemetry and
// OBSERVABILITY.md).
package core
