// Package stats provides the small numeric and formatting helpers the
// benchmark harness uses: geometric/arithmetic means, speedup ratios, and a
// plain-text table renderer for reproducing the paper's tables on stdout.
// The geometric mean is the aggregate the paper reports
// for cross-graph speedups (e.g. Figure 11's "geomean" column).
package stats
