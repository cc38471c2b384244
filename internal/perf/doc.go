// Package perf holds what every measurement writes beside its numbers: the
// host fingerprint (Env, Fingerprint) and the atomic writers (WriteJSONAtomic,
// WriteFileAtomic) that install a results file whole or not at all.
// cmd/glign-perfgate, cmd/glign, cmd/glign-bench and the benchmark module use
// them.
package perf
