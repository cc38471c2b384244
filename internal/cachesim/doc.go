// Package cachesim provides a set-associative LRU cache model that stands
// in for the perf LLC-miss counters of the paper's evaluation (see DESIGN.md
// §3). Engines replay their memory behaviour into a Cache via the
// memtrace.Tracer interface; the simulated miss counts expose exactly the
// locality effects Glign's alignments target: whether the graph data one
// query pulls into the cache is still resident when other queries touch it
// (the paper's Figure 4 / Table 10 measurements).
//
// The model is one level, the LLC: the paper reads LLC misses only, so no
// L2 sits in front of it.
//
// The default configuration (2 MiB, 16-way, 64-byte lines) is the paper's
// 40 MB Xeon LLC scaled down in proportion to the synthetic graphs, so that
// "working set well beyond cache capacity" continues to hold. Replays run
// single-threaded for a deterministic access stream, which is why the
// benchmark harness times runs and traces them separately.
package cachesim
