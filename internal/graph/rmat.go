package graph

import (
	"math/rand"
	"sync/atomic"

	"github.com/glign/glign/internal/par"
)

// RMATConfig parameterizes the recursive-matrix (R-MAT) generator used to
// synthesize power-law graphs. R-MAT recursively subdivides the adjacency
// matrix into quadrants with probabilities A, B, C, D (A+B+C+D = 1); skewed
// probabilities yield the heavy-tailed degree distributions of real social
// and web graphs, which is the property Glign's heavy-iteration heuristic
// depends on.
type RMATConfig struct {
	// Scale gives NumVertices = 1 << Scale.
	Scale int
	// EdgeFactor gives NumEdges ~= EdgeFactor << Scale (before dedup).
	EdgeFactor int
	// A, B, C are the quadrant probabilities; D = 1-A-B-C.
	A, B, C float64
	// Directed selects a directed edge set.
	Directed bool
	// Weighted attaches uniform random weights in [1, MaxWeight].
	Weighted  bool
	MaxWeight int
	// Seed makes generation deterministic.
	Seed int64
	// Name labels the resulting graph.
	Name string
}

// DefaultRMAT returns the canonical Graph500-style parameters
// (A=0.57, B=0.19, C=0.19).
func DefaultRMAT(scale, edgeFactor int, seed int64) RMATConfig {
	return RMATConfig{
		Scale:      scale,
		EdgeFactor: edgeFactor,
		A:          0.57, B: 0.19, C: 0.19,
		Directed:  true,
		Weighted:  true,
		MaxWeight: 64,
		Seed:      seed,
	}
}

// GenerateRMAT builds a deterministic R-MAT graph from cfg. Vertex ids are
// randomly permuted so that high-degree vertices are scattered across the id
// space (as in real datasets, and required for the hop-bin workload sampler
// to be meaningful).
func GenerateRMAT(cfg RMATConfig) *Graph {
	g, _ := generateRMAT(cfg, func() rand.Source { return rand.NewSource(cfg.Seed) })
	return g
}

// generateRMAT is GenerateRMAT over the random stream newSource starts. It
// reports whether the pipelined draw produced the edges; when it could not,
// the serial reference drew them from a fresh stream instead.
func generateRMAT(cfg RMATConfig, newSource func() rand.Source) (*Graph, bool) {
	n := 1 << cfg.Scale
	m := cfg.EdgeFactor * n
	maxW := max(cfg.MaxWeight, 1)
	rng := rand.New(newSource())
	perm := rng.Perm(n)
	edges, pipelined := rmatEdgesPipelined(rng, cfg, perm, m, maxW)
	if !pipelined {
		rng = rand.New(newSource())
		rng.Perm(n)
		edges = rmatEdgesSerial(rng, cfg, perm, m, maxW)
	}
	b := NewBuilder(n, cfg.Directed, cfg.Weighted)
	b.edges = edges
	g := b.MustBuild()
	g.Name = cfg.Name
	if g.Name == "" {
		g.Name = "rmat"
	}
	return g, pipelined
}

// rmatEdgesSerial is the reference draw: m edges, one after the other, from
// rng, as rmatEdge and a weight in [1, maxW] consume it.
func rmatEdgesSerial(rng *rand.Rand, cfg RMATConfig, perm []int, m, maxW int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		u, v := rmatEdge(rng, cfg.Scale, cfg.A, cfg.B, cfg.C)
		w := Weight(1 + rng.Intn(maxW))
		edges[i] = Edge{Src: VertexID(perm[u]), Dst: VertexID(perm[v]), W: w}
	}
	return edges
}

// rmatBlockEdges is how many edges' values one block of the pipelined draw
// carries: large enough that a block's conversion amortizes its par.For
// dispatch, small enough that the blocks in flight stay a few MB.
const rmatBlockEdges = 2048

// rmatEdgesPipelined produces rmatEdgesSerial's edges with the conversion of
// values to edges off the critical path. One goroutine draws rng's stream
// serially into blocks; the caller converts each block on the par pool, each
// edge reading its values through a rand.Rand over its own slice of the
// block, so Float64 and Intn keep the standard library's semantics. That
// equals the serial draw as long as every edge consumes exactly
// 5*Scale+1 values, its value count without a Float64 resample or an Intn
// rejection. An edge that consumes another count makes it report false,
// and the caller falls back to the serial draw; the rest of the stream is
// still drawn, and not converted, since the fallback is all but never
// taken. The drawing goroutine is joined before it returns.
func rmatEdgesPipelined(rng *rand.Rand, cfg RMATConfig, perm []int, m, maxW int) ([]Edge, bool) {
	d := 5*cfg.Scale + 1
	edges := make([]Edge, m)
	// Three buffers: one being drawn, one being converted, one queued.
	free := make(chan []int64, 3)
	for i := 0; i < cap(free); i++ {
		free <- make([]int64, rmatBlockEdges*d)
	}
	full := make(chan []int64, cap(free))
	go func() {
		defer close(full)
		for first := 0; first < m; first += rmatBlockEdges {
			vals := (<-free)[:min(rmatBlockEdges, m-first)*d]
			for j := range vals {
				vals[j] = rng.Int63()
			}
			full <- vals
		}
	}()
	var mismatch atomic.Bool
	first := 0
	for vals := range full {
		if !mismatch.Load() {
			par.For(len(vals)/d, 0, 0, func(lo, hi int) {
				src := &blockSource{}
				r := rand.New(src)
				for i := lo; i < hi; i++ {
					src.vals, src.pos = vals[i*d:(i+1)*d], 0
					u, v := rmatEdge(r, cfg.Scale, cfg.A, cfg.B, cfg.C)
					w := Weight(1 + r.Intn(maxW))
					if src.pos != d {
						mismatch.Store(true)
						return
					}
					edges[first+i] = Edge{Src: VertexID(perm[u]), Dst: VertexID(perm[v]), W: w}
				}
			})
		}
		first += len(vals) / d
		free <- vals
	}
	if mismatch.Load() {
		return nil, false
	}
	return edges, true
}

// blockSource is the rand.Source of one edge in the pipelined draw: it
// returns the edge's values in order and counts every draw, past the end
// too, where it returns 0 (which no Float64 resamples and no Intn rejects,
// so an overdrawing edge still terminates).
type blockSource struct {
	vals []int64
	pos  int
}

func (s *blockSource) Int63() int64 {
	s.pos++
	if s.pos <= len(s.vals) {
		return s.vals[s.pos-1]
	}
	return 0
}

func (s *blockSource) Seed(int64) {}

// rmatEdge draws one (src,dst) pair by Scale recursive quadrant choices,
// with mild parameter noise per level (the standard "smoothing" that avoids
// degenerate diagonal artifacts).
func rmatEdge(rng *rand.Rand, scale int, a, b, c float64) (int, int) {
	u, v := 0, 0
	for bit := scale - 1; bit >= 0; bit-- {
		// Jitter parameters +-10% each level, renormalizing implicitly by
		// comparing against cumulative thresholds.
		na := a * (0.9 + 0.2*rng.Float64())
		nb := b * (0.9 + 0.2*rng.Float64())
		nc := c * (0.9 + 0.2*rng.Float64())
		nd := (1 - a - b - c) * (0.9 + 0.2*rng.Float64())
		sum := na + nb + nc + nd
		r := rng.Float64() * sum
		switch {
		case r < na:
			// top-left: no bits set
		case r < na+nb:
			v |= 1 << bit
		case r < na+nb+nc:
			u |= 1 << bit
		default:
			u |= 1 << bit
			v |= 1 << bit
		}
	}
	return u, v
}
