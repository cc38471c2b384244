// Package engine is the independent serial oracle: ReferenceRun evaluates one
// query with a textbook serial label-correcting worklist that shares no code
// with the frontier, EdgeMap or par machinery of the engines it checks. Every
// engine is held bitwise to it by the differential tests, and the
// query-parallel baseline (paper §4.1) runs it once a query.
//
// A single query is no longer evaluated here: it is a batch of one on
// internal/core's Drive (core.LigraS, core.Frontiers), whose query-oblivious
// frontier at one query is the Ligra engine of the paper.
package engine
