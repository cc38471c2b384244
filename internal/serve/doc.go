// Package serve is the live query-serving loop: a long-lived Server accepts
// vertex-specific queries onto a bounded admission queue, forms evaluation
// batches, executes each batch on a configurable core engine over the shared
// work-stealing pool, and completes per-query tickets with the result
// vectors. Batch formation has no timer: an idle engine is handed whatever is
// queued at once, and what arrives while the engine runs forms the next batch
// when it returns, up to the size cap |B| — the engine's busy time is the
// batching window. It is the online counterpart of internal/systems, which
// replays pre-materialized buffers offline. SERVING.md is the full serving
// contract.
//
// On top of the batching loop the Server is a traffic-shaping front end:
//
//   - a result cache and in-flight deduplication in one key table, keyed by
//     computation (queries.KeyOf: kernel and source, the source dropped for
//     a kernel that declares itself source-free), that holds per key either
//     the pending slot or the computed result, each stamped with its data
//     epoch — an equivalent query of the same epoch joins the slot, whose
//     one execution fans its result out to every waiter and then becomes
//     the key's cached result; a result is dropped on lookup once the epoch
//     has moved (BumpEpoch, the mutation hook, takes no lock), so a repeated
//     query is answered without touching the engine and a stale result is
//     never served;
//   - affinity-aware admission — when the pending queue exceeds one batch,
//     it is re-ranked with the batching policy's heavy-iteration-arrival
//     estimate (sched.Affinity.Rank) instead of arrival order, so affine
//     queries land in the same evaluation batch;
//   - load-shedding with priority tiers — at capacity an arriving query
//     sheds the newest queued query of a strictly lower tier (shed-low-first)
//     instead of being rejected outright.
//
// The queue, the key table and the serving counters are guarded by one
// mutex, so every Stats snapshot is consistent.
//
// One goroutine, the serving loop, takes work off the queue, runs it, and
// only then looks again; nothing is taken while a batch runs, so a query
// behind a busy engine stays queued. Robustness semantics: admission is
// bounded (Submit returns ErrQueueFull when the queue reaches the configured
// capacity and nothing lower-tier is sheddable), queued queries honor
// per-query deadlines and context cancellation (checked per ticket when the
// loop takes the query, so one coalesced waiter's cancel never suppresses
// the computation its peers are owed), and Shutdown/Close stop admission
// immediately while draining everything already admitted — the running
// batch finishes and queued queries are batched and executed, so an
// admitted query always gets an answer.
//
// Every time source flows through the Clock interface, so the test harness
// drives deadline misses deterministically with a FakeClock (Advance), and a
// gate engine that holds a batch fixes which queries flush together — no
// wall-clock sleeps anywhere in the serve test suite.
package serve
