package graph

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/glign/glign/internal/par"
)

// plantedSource is a seeded source whose draw number at (counting from 0)
// returns value instead of the stream's next value.
type plantedSource struct {
	rand.Source
	draws int
	at    int
	value int64
}

func (s *plantedSource) Int63() int64 {
	s.draws++
	if s.draws-1 == s.at {
		return s.value
	}
	return s.Source.Int63()
}

// firstEdgeDraw is the number of the stream's draw that starts cfg's first
// edge: the draws Perm takes before it.
func firstEdgeDraw(cfg RMATConfig) int {
	counter := &plantedSource{Source: rand.NewSource(cfg.Seed), at: -1}
	rand.New(counter).Perm(1 << cfg.Scale)
	return counter.draws
}

// serialRMAT is the reference generator: the serial draw over the stream
// newSource starts, built like generateRMAT builds.
func serialRMAT(cfg RMATConfig, newSource func() rand.Source) *Graph {
	n := 1 << cfg.Scale
	rng := rand.New(newSource())
	perm := rng.Perm(n)
	edges := rmatEdgesSerial(rng, cfg, perm, cfg.EdgeFactor*n, max(cfg.MaxWeight, 1))
	g, err := FromEdges(n, cfg.Directed, cfg.Weighted, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// TestRMATPlantedDrawTakesSerialPath plants a value into the stream where
// the serial draw consumes one value more than an edge's 5*Scale+1: an
// Int63 of 1<<63-1, which Float64 rounds to 1 and resamples, and one whose
// Int31 Intn rejects for a MaxWeight that is not a power of two. The
// pipelined draw must notice, generateRMAT must fall back to the serial
// draw, and the graph must equal the reference. Unplanted, the pipeline
// must produce the edges itself and equal the reference too.
func TestRMATPlantedDrawTakesSerialPath(t *testing.T) {
	p, err := preset(LJ, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg := *p.rmat
	d := 5*cfg.Scale + 1
	first := firstEdgeDraw(cfg)
	edge := rmatBlockEdges + 5 // an edge in the second block

	cases := []struct {
		name      string
		maxWeight int
		at        int // -1: no plant
		pipelined bool
	}{
		{"unplanted", 64, -1, true},
		{"float64-resample", 64, first + edge*d, false},
		{"intn-rejection", 10, first + edge*d + d - 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := cfg
			cfg.MaxWeight = c.maxWeight
			newSource := func() rand.Source {
				return &plantedSource{Source: rand.NewSource(cfg.Seed), at: c.at, value: 1<<63 - 1}
			}
			g, pipelined := generateRMAT(cfg, newSource)
			if pipelined != c.pipelined {
				t.Fatalf("pipelined = %v, want %v", pipelined, c.pipelined)
			}
			if got, want := csrHash(g), csrHash(serialRMAT(cfg, newSource)); got != want {
				t.Fatalf("CSR hash %#x, serial reference %#x", got, want)
			}
		})
	}
}

// TestGenerateRMATJoinsDrawer holds the pipelined draw's goroutine lifetime:
// GenerateRMAT launches the goroutine that draws the stream, and it is
// joined before the graph is returned, on the pipelined path and on the
// fallback to the serial draw.
func TestGenerateRMATJoinsDrawer(t *testing.T) {
	par.Default()
	before := runtime.NumGoroutine()
	p, err := preset(LJ, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg := *p.rmat
	GenerateRMAT(cfg)
	at := firstEdgeDraw(cfg) + (rmatBlockEdges+5)*(5*cfg.Scale+1)
	planted := func() rand.Source {
		return &plantedSource{Source: rand.NewSource(cfg.Seed), at: at, value: 1<<63 - 1}
	}
	if _, pipelined := generateRMAT(cfg, planted); pipelined {
		t.Fatal("planted draw did not fall back to the serial draw")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after generation, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}
