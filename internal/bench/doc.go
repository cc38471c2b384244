// Package bench implements the experiment harness: one entry per table and
// figure of the paper's evaluation section (§4), in the paper's order, then
// the ablations, each regenerating the corresponding rows or series on
// synthetic stand-in graphs. The mapping from experiment id to paper
// artifact is the experiment index of DESIGN.md; measured-vs-paper outcomes
// are recorded in EXPERIMENTS.md.
//
// Most artifacts compare methods on graph × workload cells; each of those is
// a grid spec (the methods, an optional base method, wall time or simulated
// misses, optionally fixed graphs or workloads) that one runner prints as a
// row per cell and a column per method. The artifacts of another shape
// (frontier traces, footprints, alignment studies, the batch-size sweep and
// the ablations) keep a runner of their own.
//
// Experiments share a per-dataset environment cache (graph, alignment
// profile, sampled sources) so that a -exp all sweep builds each graph once.
// Timed runs go through internal/systems and time one run each; cache-miss
// readings replay one batch through internal/cachesim instead of timing it.
// When Config.Telemetry is set (cmd/glign-bench -metrics-out), every timed
// method run leaves a full per-iteration trace in the collector — the raw
// material for the paper's Figures 6-9 style analysis; see OBSERVABILITY.md.
package bench
