// Package oracle is the benchmark-validity harness: the serial reference
// evaluators every engine is held to, per-kernel invariant oracles over result
// vectors, plus graph/dataset sanity checks over the generated inputs.
//
// ReferenceRun is the independent serial oracle of a monotone query: a
// textbook serial label-correcting worklist that shares no code with the
// frontier, EdgeMap or par machinery of the engines it checks. Every engine
// is held bitwise to it by the differential tests, and internal/core's
// Query-Parallel engine (paper §4.1) runs it once a query. GoldenValues
// routes a query to it, or a convergence kernel to SerialJacobi.
//
// The differential harness at the repository root proves that eleven
// implementations agree; it cannot prove any of them right. This package
// closes that gap with independently-coded certificates ("SoK: The Faults
// in our Graph Benchmarks", PAPERS.md): a BFS result must satisfy
// level(child) <= level(parent)+1, an SSSP result the triangle inequality,
// every monotone result a fixed-point/justification pair, a k-hop result
// must match a golden serial walk, and a convergence result must be a
// fixed point of one more Jacobi step within the kernel's epsilon. Dataset
// checks certify the generators themselves (CSR accounting, degree
// symmetry, R-MAT skew and road-network degree-bound smoke checks).
//
// Every invariant is implemented against first principles — direct scans
// of the CSR arrays and the Kernel contract — never by calling back into
// the engines under test. Mutation tests in this package seed deliberate
// corruptions and assert each invariant catches its class: an oracle that
// cannot fail certifies nothing.
package oracle
