// Package telemetry is the runtime observability layer: low-overhead,
// optionally-enabled metrics threaded through the hot paths of every
// evaluation engine (internal/core), the batching policies
// (internal/sched), and the method compositions
// (internal/systems).
//
// The hierarchy mirrors the execution structure:
//
//	Collector            one per process / Runtime / bench invocation
//	└── RunTrace         one per method run (systems.Run over a buffer)
//	    ├── BatchingDecision   per scheduler window (paper §3.4, Figure 10)
//	    └── BatchTrace         one per evaluation batch
//	        └── IterationStat  one per global iteration
//
// Each IterationStat carries the quantities the paper's Figures 6-9 reason
// about: unified frontier size and evaluation model (push/jacobi),
// active-query count, edges processed, per-lane relaxation attempts, and
// successful value-array writes. Batch traces additionally record the
// delayed-start alignment vector applied (Definition 3.3) and the batch
// composition the scheduler chose (§3.4).
//
// Cost model: when telemetry is disabled every hook is a method on a nil
// pointer that returns immediately, and engines pre-aggregate per worker
// and per iteration, so an enabled collector sees O(iterations) updates,
// never O(edges). OBSERVABILITY.md documents the JSON schema
// (SchemaVersion) and measured overhead; expvar.go exports live counters
// for the -listen endpoint of cmd/glign.
package telemetry
