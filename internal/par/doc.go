// Package par provides the work-stealing parallel runtime the engines are
// built on. It stands in for the Cilk scheduler that Ligra (and therefore
// Krill and Glign) uses: dynamic chunk self-scheduling over an index space,
// which delivers the balanced vertex-level parallelism the paper relies on
// without any external dependency.
//
// The runtime is a persistent Pool: long-lived workers started once, woken
// by tokens when a loop is submitted, so the per-call cost of For is a few
// atomic operations instead of a goroutine spawn and WaitGroup per call —
// engines call For once per iteration per query, thousands of times per
// batch. The index space is split into one contiguous segment per
// participant (the submitter always participates); each participant drains
// its own segment first and then steals grain-sized chunks from the others,
// so skewed per-vertex work (power-law degree distributions) self-balances.
// ForSlots also hands the body its participant's slot, below Slots(workers):
// no two participants of one loop share one, so engines keep worker-private
// state — scratches, per-iteration work counts — in slices indexed by slot,
// with no lock, and merge it once the loop has joined, keeping the hot path
// free of shared-cacheline traffic; the pool's own scheduling counters (jobs,
// chunks, steals, parks) feed the telemetry scheduler section.
package par
