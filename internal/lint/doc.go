// Package lint is the engine behind cmd/glignlint: a stdlib-only
// (go/parser + go/ast + go/types) static-analysis driver with
// project-specific analyzers for the concurrency and engine invariants this
// repository depends on.
//
// Glign's performance comes from many queries sharing one traversal, so its
// hot paths (EdgeMap lanes, the query-oblivious frontier, batch schedulers)
// share CAS-relaxed value cells and frontier words among the workers of the
// hand-rolled par.For runtime. Those words are typed sync/atomic values, so
// the compiler and go vet keep atomic and plain access apart, and tests that
// run the code hold the allocation and kernel contracts. What is left to
// convention, and checked here, is a worker of the par runtime that writes
// a variable shared between chunks, a package without a package comment,
// and a suppression that no longer suppresses anything; see LINTING.md for
// the catalogue.
//
// The analyzers are syntactic and type-directed only. The one module-wide
// fact they share is the set of function bodies the internal/par runtime
// runs on its workers (ParWorkers), found through an index of every
// declared function. All of it is plain go/ast + go/types; the driver has
// no dependency outside the standard library.
//
// Findings can be suppressed with a justification:
//
//	//lint:ignore glignlint/<analyzer> <reason>
//
// placed on the offending line, on the line directly above it, or in the
// doc comment of the enclosing function (which suppresses the whole
// function for that analyzer). The reason is mandatory.
package lint
