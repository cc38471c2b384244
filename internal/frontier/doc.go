// Package frontier implements the VertexSubset abstraction of Ligra-style
// engines: the set of active vertices of one iteration. A Subset is a dense
// bitmap: its size (Count) is a popcount of the words, and its sparse view
// (Sparse, the sorted vertex list) is rebuilt from them on every call into a
// buffer kept for its capacity, so no mutation keeps a count or a cache. A
// parallel EdgeMap builds the next frontier either with race-free CAS
// insertion (Add) or, sharing no cache line between writers, in one private
// Accumulator a writer that Subset.Merge ORs in after they join.
//
// Glign's query-oblivious frontier (paper §3.2) is a single Subset shared by
// every query in the batch; the two-level design it replaces (Ligra-C,
// SimGQ) additionally keeps one Subset per query, and Krill a per-vertex
// query mask, which lives with the engines in internal/core. The length of
// the member list a step walks is what the engines report as frontier_size
// in per-iteration telemetry, the quantity behind the paper's Figure 7
// traversal-peak analysis.
package frontier
