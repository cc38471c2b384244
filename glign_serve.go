package glign

import "github.com/glign/glign/internal/serve"

// Live serving: Serve starts a long-lived server that admits queries one at
// a time onto a bounded queue, batches them under the configured method's
// policy — whatever is queued goes to an idle engine at once, and what
// arrives while the engine runs forms the next batch, up to the size cap —
// and executes the batches on the
// shared work-stealing pool — the online counterpart of Runtime.Run, which
// evaluates a pre-materialized buffer. The server is also a traffic-shaping
// front end: an epoch-invalidated result cache, in-flight dedup of equivalent
// queries (same kernel and source; PageRank and LabelProp from any source),
// affinity-aware admission ordering, and tiered load-shedding.
// SERVING.md is the full contract (admission state machine, cache epoch
// semantics, dedup fan-out guarantees, tier/shed policy, telemetry ledger).

// Server is a live query server (admission queue -> batches -> engine ->
// per-query tickets). Submit/SubmitWith admit queries, BumpEpoch
// invalidates cached results after a data change, Shutdown stops admission,
// Close drains everything admitted and joins the server's goroutine.
type Server = serve.Server

// ServeConfig parameterizes a Server: method (which also fixes the admission
// order), batch size cap, admission-queue capacity, result-cache capacity,
// deadlines clock, pool, telemetry.
type ServeConfig = serve.Config

// QueryTicket is the completion handle of one submitted query: Wait (or
// Done + Query/values) yields the query's full per-vertex result vector or
// a typed error; ResultEpoch reports the data epoch the values were
// computed at.
type QueryTicket = serve.Ticket

// SubmitOptions carries per-query submission knobs (deadline, priority
// tier) for Server.SubmitWith.
type SubmitOptions = serve.SubmitOptions

// QueryTier is a query's admission priority class. Under overload the
// server sheds queued lower-tier queries to admit higher ones
// (shed-low-first; see SERVING.md).
type QueryTier = serve.Tier

// The three priority tiers, lowest first. TierNormal is the zero value and
// the default for submissions that don't set a tier.
const (
	TierLow    = serve.TierLow
	TierNormal = serve.TierNormal
	TierHigh   = serve.TierHigh
)

// Typed serving errors, re-exported for errors.Is dispatch.
var (
	// ErrQueueFull is the admission backpressure rejection.
	ErrQueueFull = serve.ErrQueueFull
	// ErrServerClosed rejects submissions after Shutdown/Close began.
	ErrServerClosed = serve.ErrClosed
	// ErrQueryDeadline completes a ticket whose deadline expired while it
	// was still queued.
	ErrQueryDeadline = serve.ErrDeadline
	// ErrQueryShed completes a queued ticket sacrificed for a
	// higher-priority arrival under overload.
	ErrQueryShed = serve.ErrShed
)

// Serve starts a live query server on g. The zero config serves full-Glign
// batches of at most 64 with a 1024-query admission bound, a 1024-entry
// result cache, in-flight dedup, and the method's own admission ordering.
func Serve(g *Graph, cfg ServeConfig) (*Server, error) {
	return serve.New(g, cfg)
}
