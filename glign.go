// Package glign is a from-scratch Go implementation of Glign (Yin, Zhao,
// Gupta — ASPLOS 2023): a runtime system for in-memory concurrent graph
// query processing that aligns the graph traversals of concurrent
// vertex-specific queries to maximize graph-access sharing in the memory
// hierarchy.
//
// Glign evaluates batches of monotone vertex-centric queries (BFS, SSSP,
// SSWP, SSNP, Viterbi, and mixtures) with three levels of alignment:
//
//   - intra-iteration: a single query-oblivious frontier replaces per-query
//     frontiers, so the shared accesses of all queries to an active vertex
//     and its out-edges are perfectly coalesced;
//   - inter-iteration: queries whose "heavy iterations" would arrive early
//     are given a delayed start so that all heavy iterations align;
//   - batching: queries with similar heavy-iteration arrival times are
//     grouped into the same evaluation batch.
//
// The quickest way in:
//
//	g, _ := glign.Generate("LJ", "small")
//	rt, _ := glign.NewRuntime(g)
//	report, _ := rt.Run([]glign.Query{
//		{Kernel: glign.SSSP, Source: 17},
//		{Kernel: glign.SSSP, Source: 42},
//	})
//	dist := report.Values(0) // per-vertex distances of the first query
//
// Alternative evaluation methods (the baselines of the paper's evaluation:
// Ligra-S, Ligra-C, Krill, GraphM, iBFS, ...) are available through
// WithMethod, and the full experiment harness regenerating every table and
// figure of the paper lives in cmd/glign-bench.
package glign

import (
	"fmt"
	"sync"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/oracle"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/systems"
	"github.com/glign/glign/internal/telemetry"
	"github.com/glign/glign/internal/workload"
)

// Core graph and query types (re-exported from the internal substrate).
type (
	// Graph is an immutable CSR graph.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and produces a Graph.
	GraphBuilder = graph.Builder
	// Edge is a directed weighted edge for bulk construction.
	Edge = graph.Edge
	// VertexID identifies a vertex (dense, from 0).
	VertexID = graph.VertexID
	// Weight is an edge weight.
	Weight = graph.Weight
	// Query pairs a kernel with a source vertex.
	Query = queries.Query
	// Kernel is a monotone vertex function (paper Table 6).
	Kernel = queries.Kernel
	// Value is a vertex property value.
	Value = queries.Value
	// GraphStats summarizes structural graph properties.
	GraphStats = graph.Stats
)

// The five monotone query kernels of the paper's evaluation, plus the
// iterate-to-convergence kernels (PageRank, LabelProp) this implementation
// adds beyond the paper. Convergence kernels run synchronous Jacobi rounds
// to a fixed point instead of monotone frontier relaxation; batches mixing
// the two paradigms are split automatically before dispatch.
var (
	BFS       = queries.BFS
	SSSP      = queries.SSSP
	SSWP      = queries.SSWP
	SSNP      = queries.SSNP
	Viterbi   = queries.Viterbi
	PageRank  = queries.PageRank
	LabelProp = queries.LabelProp
)

// KHop returns the monotone bounded-reachability kernel: hop distances up
// to k, +Inf beyond. Its name is "KHOP<k>".
func KHop(k int) Kernel { return queries.KHop(k) }

// KernelByName resolves a kernel by name: "BFS", "SSSP", "SSWP", "SSNP",
// "Viterbi", "PageRank", "LabelProp", "KHOP" (default depth) or "KHOP<k>".
func KernelByName(name string) (Kernel, error) { return queries.ByName(name) }

// Evaluation methods accepted by WithMethod, named as in the paper.
const (
	MethodGlign         = systems.Glign
	MethodGlignIntra    = systems.GlignIntra
	MethodGlignInter    = systems.GlignInter
	MethodGlignBatch    = systems.GlignBatch
	MethodLigraS        = systems.LigraS
	MethodLigraC        = systems.LigraC
	MethodKrill         = systems.Krill
	MethodGraphM        = systems.GraphM
	MethodIBFS          = systems.IBFS
	MethodQueryParallel = systems.QueryParallel
	MethodCongra        = systems.Congra
)

// Methods lists every evaluation method.
func Methods() []string {
	return append(systems.AllMethods(), systems.IBFS, systems.QueryParallel, systems.Congra)
}

// NewGraphBuilder starts building a graph with n vertices.
func NewGraphBuilder(n int, directed, weighted bool) *GraphBuilder {
	return graph.NewBuilder(n, directed, weighted)
}

// LoadGraph loads a graph file: ".bin" for the binary CSR format, anything
// else as a SNAP-style text edge list ("src dst [weight]" lines). A weight
// that is not >= 1 is an error: every query kernel relies on it.
func LoadGraph(path string, directed bool) (*Graph, error) {
	return graph.LoadFile(path, directed)
}

// SaveGraph writes a graph in the format implied by the path's extension.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// Generate synthesizes a deterministic stand-in for one of the paper's
// datasets ("LJ", "WP", "UK2", "TW", "FR", "RD-CA", "RD-US") at a size
// class ("tiny", "small", "medium"). See DESIGN.md for how the stand-ins
// map to the real datasets.
func Generate(dataset, size string) (*Graph, error) {
	var sc graph.SizeClass
	switch size {
	case "tiny":
		sc = graph.Tiny
	case "small":
		sc = graph.Small
	case "medium":
		sc = graph.Medium
	default:
		return nil, fmt.Errorf("glign: unknown size class %q (tiny/small/medium)", size)
	}
	return graph.Generate(graph.Dataset(dataset), sc)
}

// Datasets lists the names accepted by Generate.
func Datasets() []string {
	var out []string
	for _, d := range graph.AllDatasets() {
		out = append(out, string(d))
	}
	return out
}

// ComputeStats gathers structural statistics of a graph.
func ComputeStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// PaperExampleGraph returns the 9-vertex running example of the paper's
// Figure 3, useful for experimentation and tests.
func PaperExampleGraph() *Graph { return graph.PaperExample() }

// SampleSources draws n query source vertices from g with the paper's
// hop-bin sampling strategy (§4.1): vertices are binned by hop distance to
// the top high-degree hubs and bins are drawn from in rounds, spreading the
// sources across the whole graph structure. Deterministic in seed.
func SampleSources(g *Graph, n int, seed int64) []VertexID {
	prof := align.NewProfile(g, align.DefaultHubCount, 0)
	return workload.Sources(g, prof, n, seed)
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithMethod selects the evaluation method (default MethodGlign).
func WithMethod(m string) Option { return func(r *Runtime) { r.method = m } }

// WithBatchSize sets the number of queries evaluated concurrently
// (default 64).
func WithBatchSize(b int) Option { return func(r *Runtime) { r.cfg.BatchSize = b } }

// WithWorkers bounds parallelism (default GOMAXPROCS).
func WithWorkers(w int) Option { return func(r *Runtime) { r.cfg.Workers = w } }

// Pool is the persistent work-stealing scheduler every parallel loop runs
// on: long-lived workers claim contiguous chunks from their own segment and
// steal from neighbors when it drains (see DESIGN.md). One process-wide
// pool is started lazily and shared by default.
type Pool = par.Pool

// NewPool starts a dedicated pool with n long-lived workers (n <= 0:
// GOMAXPROCS). Close it when done; the shared default pool needs neither.
func NewPool(n int) *Pool { return par.NewPool(n) }

// WithPool runs every parallel loop of the runtime on p instead of the
// shared process-wide pool, isolating the runtime's scheduling — and the
// steal/imbalance telemetry it produces — from other concurrent work. A nil
// p keeps the shared pool.
func WithPool(p *Pool) Option { return func(r *Runtime) { r.cfg.Pool = p } }

// Telemetry collects runtime metrics: global counters and histograms plus
// per-run, per-batch, per-iteration timelines (see internal/telemetry and
// OBSERVABILITY.md for the schema). One Telemetry may be shared by several
// Runtimes; Snapshot serializes its state to the machine-readable form.
type Telemetry = telemetry.Collector

// Metrics is the JSON-serializable snapshot of a Telemetry collector.
type Metrics = telemetry.Metrics

// RunMetrics is the per-iteration timeline of one Run call, returned by
// Report.Metrics.
type RunMetrics = telemetry.RunMetrics

// NewTelemetry returns an empty telemetry collector for WithTelemetry.
func NewTelemetry() *Telemetry { return telemetry.NewCollector() }

// WithTelemetry attaches a telemetry collector to the runtime: every Run
// records per-iteration engine metrics (frontier sizes, edges relaxed,
// value writes, delayed starts) and scheduler decisions into t, and
// Report.Metrics exposes the run's timeline. A nil t (or omitting the
// option) disables collection at near-zero cost.
func WithTelemetry(t *Telemetry) Option { return func(r *Runtime) { r.cfg.Telemetry = t } }

// Runtime evaluates buffers of concurrent queries on one graph. It owns the
// graph's alignment profile (the one-time reverse-BFS precompute of paper
// §3.3), which is built lazily on first use and shared across runs, and the
// batch arena (DESIGN.md "The batch arena"): once warmed, a Run allocates
// little beyond the result vectors of its Report, and the runtime keeps the
// largest batch value array it has needed for as long as it lives. Run may be
// called from several goroutines at once.
type Runtime struct {
	g           *Graph
	method      string
	cfg         systems.Config // cfg.Arena is the runtime's, created empty
	profileOnce sync.Once
	profile     *align.Profile
}

// NewRuntime creates a runtime for g.
func NewRuntime(g *Graph, opts ...Option) (*Runtime, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, fmt.Errorf("glign: empty graph")
	}
	r := &Runtime{g: g, method: MethodGlign}
	for _, o := range opts {
		o(r)
	}
	if r.cfg.BatchSize <= 0 {
		r.cfg.BatchSize = 64
	}
	r.cfg.Arena = new(core.Arena)
	return r, nil
}

// Profile returns the runtime's alignment profile, building it on first
// call (ProfileCost reports the one-time cost afterwards).
func (r *Runtime) Profile() *AlignmentProfile {
	r.profileOnce.Do(func() {
		r.profile = align.NewProfile(r.g, align.DefaultHubCount, r.cfg.Workers)
	})
	return r.profile
}

// AlignmentProfile is the per-graph precompute guiding inter-iteration
// alignment and affinity batching.
type AlignmentProfile = align.Profile

// AlignmentVector returns the delayed-start schedule (paper Definition 3.3)
// the runtime's heuristic would assign to a batch: AlignmentVector(b)[i] is
// the global iteration at which query i would start so that all heavy
// iterations align.
func (r *Runtime) AlignmentVector(batch []Query) []int {
	return r.Profile().AlignmentVector(batch)
}

// Affinity measures the graph-access sharing of a batch under an alignment
// vector (paper Definition 3.4): values approach 1-1/B when the frontiers
// perfectly overlap and 0 when they never do. It traces each query
// independently (one evaluation per query), so it is an analysis tool, not
// a runtime fast path. A nil alignment means all queries start together.
func Affinity(g *Graph, batch []Query, alignment []int) float64 {
	if alignment == nil {
		alignment = make([]int, len(batch))
	}
	traces := align.TraceBatch(g, batch, 0)
	return align.Affinity(traces, alignment)
}

// Report is the outcome of evaluating a buffer of queries.
type Report struct {
	res    *systems.Result
	buffer []Query
	g      *Graph
	n      int
}

// Run evaluates the buffer (any number of queries; they are batched
// according to the runtime's method and batch size) and returns a report
// with per-query results.
func (r *Runtime) Run(buffer []Query) (*Report, error) {
	cfg := r.cfg
	cfg.KeepValues = true
	if systems.NeedsProfile(r.method) {
		cfg.Profile = r.Profile()
	}
	res, err := systems.Run(r.method, r.g, buffer, cfg)
	if err != nil {
		return nil, err
	}
	return &Report{res: res, buffer: buffer, g: r.g, n: r.g.NumVertices()}, nil
}

// Verify recomputes up to sample queries of the report (all, when sample
// <= 0 or exceeds the buffer) with an independent serial golden evaluator —
// label-correcting for monotone kernels, serial Jacobi for convergence
// kernels — and returns an error describing the first mismatch. All engines
// compute exact (and, for Jacobi, order-deterministic) fixed points, so any
// mismatch is a bug, not noise.
func (rep *Report) Verify(sample int) error {
	if sample <= 0 || sample > len(rep.buffer) {
		sample = len(rep.buffer)
	}
	stride := len(rep.buffer) / sample
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(rep.buffer); i += stride {
		want := oracle.GoldenValues(rep.g, rep.buffer[i])
		got := rep.Values(i)
		for v := range want {
			if got[v] != want[v] {
				return fmt.Errorf("glign: query %d (%s) disagrees with reference at vertex %d: %v != %v",
					i, rep.buffer[i], v, got[v], want[v])
			}
		}
	}
	return nil
}

// Method returns the runtime's evaluation method.
func (r *Runtime) Method() string { return r.method }

// Values returns the result vector of the i-th query of the buffer: one
// Value per vertex (the kernel's identity where unreached).
func (rep *Report) Values(i int) []Value { return rep.res.Values[i] }

// Value returns the result of query i at vertex v.
func (rep *Report) Value(i int, v VertexID) Value { return rep.res.Values[i][v] }

// NumQueries returns the buffer size.
func (rep *Report) NumQueries() int { return len(rep.buffer) }

// DurationSeconds is the wall-clock evaluation time (excluding the one-time
// profile precompute).
func (rep *Report) DurationSeconds() float64 { return rep.res.Duration.Seconds() }

// Batches returns the evaluation batches as buffer-index lists, in the
// order they ran (exposes what affinity-oriented batching decided). A list
// holds its batch's lanes, then the queries the batch answered without a
// lane: a query whose computation an earlier query of the buffer already is
// (same kernel and source; PageRank and LabelProp from any source) takes no
// lane of its own and is listed with that query. Every buffer index appears
// in exactly one list.
func (rep *Report) Batches() [][]int { return rep.res.Batches }

// Metrics returns the run's telemetry timeline — per-batch, per-iteration
// frontier sizes, edges relaxed, value writes, alignment vectors, and the
// scheduler decisions that formed the batches. It returns nil unless the
// runtime was built WithTelemetry. The snapshot is an independent copy;
// it does not change as the collector observes further runs.
func (rep *Report) Metrics() *RunMetrics { return rep.res.Telemetry.Snapshot() }

// TotalIterations is the number of global iterations summed over batches.
func (rep *Report) TotalIterations() int { return rep.res.TotalIterations }

// LatencySeconds returns the completion latency of the i-th query of the
// buffer: time from the start of the run until its evaluation batch
// finished. Affinity-oriented batching may reorder queries within its
// window, which this metric makes observable.
func (rep *Report) LatencySeconds(i int) float64 {
	d, ok := rep.res.QueryLatency(i)
	if !ok {
		return 0
	}
	return d.Seconds()
}

// Reached reports how many vertices query i reached.
func (rep *Report) Reached(i int) int {
	vals := rep.res.Values[i]
	id := rep.buffer[i].Kernel.Identity()
	count := 0
	for _, v := range vals {
		if v != id {
			count++
		}
	}
	return count
}
