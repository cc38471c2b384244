// Package frontier implements the VertexSubset abstraction of Ligra-style
// engines: the set of active vertices of one iteration. A Subset is a dense
// bitmap with an optional cached sparse (vertex list) view. A parallel
// EdgeMap builds the next frontier either with race-free CAS insertion
// (Add) or, sharing no cache line between writers, in one private
// Accumulator a writer that Subset.Merge ORs in after they join.
//
// Glign's query-oblivious frontier (paper §3.2) is a single Subset shared by
// every query in the batch; the two-level design it replaces (Ligra-C,
// Krill, SimGQ) additionally keeps one Subset — or a per-vertex query
// bitmask, see QueryMask — per query. Subset.Count is what the engines
// report as frontier_size in per-iteration telemetry, the quantity behind
// the paper's Figure 7 traversal-peak analysis.
package frontier
