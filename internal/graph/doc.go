// Package graph provides the in-memory graph substrate used by the Glign
// runtime: a compressed sparse row (CSR) representation with optional edge
// weights, edge-reversed views, degree statistics, deterministic synthetic
// generators (R-MAT power-law graphs and grid road networks), and simple
// text/binary persistence.
//
// The representation mirrors what Ligra-style engines consume: for each
// vertex v, Offsets[v]..Offsets[v+1] delimits v's out-edges in Targets (and
// Weights, when present). Vertex identifiers are dense uint32 values in
// [0, NumVertices).
//
// The synthetic datasets (LJ, WP, UK2, TW, FR power-law graphs; RD-CA,
// RD-US road grids) are scaled-down stand-ins for the real-world inputs of
// the paper's evaluation, sized so that CSR footprint exceeds the simulated
// LLC by the same order of magnitude as in the paper (see DESIGN.md §3).
//
// Building costs little more than drawing the random stream. Builder.Build
// lays arcs out by a counting sort on the source and sorts each source's
// arcs by (target, weight), in the order a comparison sort of all arcs
// gives. GenerateRMAT draws its seeded stream serially, in blocks, and
// converts each block to edges on the par pool; when an edge consumes other
// than its usual count of values (a Float64 resample, an Intn rejection) it
// falls back to the serial draw it is held to. Every generated graph is
// byte-identical to the comparison-sort, serial-draw generator's, which
// TestGeneratedGraphsAreUnchanged pins by hash.
package graph
