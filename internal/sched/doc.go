// Package sched implements query batching: how a buffer of concurrent
// queries is partitioned into evaluation batches. It provides the paper's
// two policies — first-come-first-serve and Glign's affinity-oriented
// batching (§3.4, Figure 10) — plus the batching-window mechanism that
// bounds how far affinity-oriented batching may reorder queries (and thus
// the latency a reordered query can pay), and the comparator policy IBFS:
// iBFS's grouping of BFS queries whose low-degree sources share a heavy
// out-neighbor (§4.8).
//
// Affinity-oriented batching ranks each window by the heavy-iteration
// arrival estimate closestHV from internal/align, so queries whose deep
// traversals peak at similar depths land in the same batch. The same ranking
// is exposed standalone as Affinity.Rank, which the serving layer
// (internal/serve) uses for affinity-aware admission: ordering the live
// pending queue before batch formation rather than a pre-materialized
// buffer. Every window
// decision (policy, window bounds, chosen order, arrival estimates) is
// recorded as a telemetry BatchingDecision when a RunTrace is attached,
// making batch composition auditable after the fact (see OBSERVABILITY.md).
package sched
