// Package lint is the engine behind cmd/glignlint: a stdlib-only
// (go/parser + go/ast + go/types) static-analysis driver with
// project-specific analyzers for the concurrency and engine invariants this
// repository depends on.
//
// Glign's performance comes from many queries sharing one traversal, so its
// hot paths (EdgeMap lanes, the query-oblivious frontier, batch schedulers)
// share CAS-relaxed value cells and frontier words among the workers of the
// hand-rolled par.For runtime. Those words are typed sync/atomic values, so
// the compiler and go vet keep atomic and plain access apart; what
// convention alone cannot keep is the rest: a relaxation that bypasses the
// CAS helpers, a closure passed to par.For that writes a captured variable,
// an allocation repeated every traversal iteration. Each analyzer
// machine-checks one such invariant; see LINTING.md for the catalogue and
// the paper sections that motivate them.
//
// The analyzers share a flow-sensitive, interprocedural substrate: a
// statement-granular CFG per function (BuildCFG), a forward-dataflow
// fixpoint engine (ForwardFlow), a module-wide call graph, the set of
// function bodies the internal/par runtime runs on its workers (ParWorkers),
// and a derived purity classification. All of it is plain go/ast +
// go/types; the driver has no dependency outside the standard library.
//
// Findings can be suppressed with a justification:
//
//	//lint:ignore glignlint/<analyzer> <reason>
//
// placed on the offending line, on the line directly above it, or in the
// doc comment of the enclosing function (which suppresses the whole
// function for that analyzer). The reason is mandatory.
package lint
