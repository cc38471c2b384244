// Package systems wires the engines (internal/core), the alignment profile
// (internal/align) and the batching policies (internal/sched) into the named
// evaluation methods of paper Table 5:
//
//	Ligra-S, Ligra-C, GraphM, Krill,
//	Glign-Intra, Glign-Inter, Glign-Batch, Glign,
//
// plus the §4.8 iBFS reimplementation and the §4.1 query-level-parallelism
// design. A method consumes a query buffer, partitions it into evaluation
// batches, evaluates every batch, and reports aggregate statistics — the
// unit all throughput experiments are built on.
//
// This is also where telemetry is threaded through the stack: Run opens one
// RunTrace per method run on the configured Collector, hands the policy a
// handle for its batching decisions, opens one BatchTrace per evaluation
// batch (carrying engine name, query composition and alignment vector) for
// the engines' per-iteration records, and stamps wall times on the way out.
// See internal/telemetry and OBSERVABILITY.md.
package systems
