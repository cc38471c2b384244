package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/stats"
)

// The generator's self-checks: an arrival process or a skew that is not
// what the README says would make every serving number mean something else.

func TestArrivalsArePoissonAtTheStatedRate(t *testing.T) {
	const window = 20 * time.Second
	due := poissonArrivals(rand.New(rand.NewSource(7)), serveRate, serveWarmup, window)
	if want := int(serveRate * window.Seconds()); len(due) != want {
		t.Fatalf("%d arrivals, want exactly %d", len(due), want)
	}
	gaps := make([]float64, len(due)-1)
	for i := range gaps {
		if due[i+1] < due[i] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		gaps[i] = float64(due[i+1] - due[i])
	}
	if due[0] < int64(serveWarmup) || due[len(due)-1] >= int64(serveWarmup+window) {
		t.Errorf("arrivals [%d, %d] leave the window", due[0], due[len(due)-1])
	}
	wantGap := float64(time.Second) / serveRate
	if got := stats.Mean(gaps); math.Abs(got/wantGap-1) > 0.03 {
		t.Errorf("mean inter-arrival %.0f ns, want within 3%% of %.0f ns", got, wantGap)
	}
	// Exponential gaps have a coefficient of variation of 1; evenly paced
	// arrivals would read 0.
	if got := cv(gaps); math.Abs(got-1) > 0.1 {
		t.Errorf("inter-arrival CV = %.3f, want about 1 (Poisson)", got)
	}
}

func TestZipfTopShare(t *testing.T) {
	const draws = 200000
	ranks := zipfRanks(rand.New(rand.NewSource(11)), draws, serveSourcePool)
	top := serveSourcePool / 100
	hits := 0
	for _, r := range ranks {
		if r < 0 || r >= serveSourcePool {
			t.Fatalf("rank %d outside [0, %d)", r, serveSourcePool)
		}
		if r < top {
			hits++
		}
	}
	// P(k) is proportional to (v+k)^-s.
	var head, all float64
	for k := 0; k < serveSourcePool; k++ {
		w := math.Pow(serveZipfV+float64(k), -serveZipfS)
		all += w
		if k < top {
			head += w
		}
	}
	got, want := float64(hits)/draws, head/all
	if math.Abs(got-want) > 0.01 {
		t.Errorf("top 1%% of sources drew %.4f of the requests, want %.4f +/- 0.01", got, want)
	}
}

func tinyGraph(t *testing.T) (*graph.Graph, *align.Profile) {
	t.Helper()
	g, err := graph.Generate(graph.LJ, graph.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	return g, align.NewProfile(g, align.DefaultHubCount, 1)
}

func TestHeterMixComposition(t *testing.T) {
	g, prof := tinyGraph(t)
	buf := heterMixBuffer(g, prof, deriveSeeds(3, 0))
	if len(buf) != bufferSize {
		t.Fatalf("%d queries, want %d", len(buf), bufferSize)
	}
	counts := map[string]int{}
	for _, q := range buf {
		counts[q.Kernel.Name()]++
	}
	heter := counts["BFS"] + counts["SSSP"] + counts["SSWP"] + counts["SSNP"]
	if heter != mixHeter || counts["KHOP3"] != mixKHop || counts["PageRank"] != mixPageRank || mixPageRank != 16 {
		t.Errorf("mix = %v, want %d paper kernels / %d KHOP3 / 16 PageRank", counts, mixHeter, mixKHop)
	}
	// Shuffled: the PageRank queries are not all in the tail block they
	// were appended in.
	tail := 0
	for _, q := range buf[bufferSize-mixPageRank:] {
		if q.Kernel.Name() == "PageRank" {
			tail++
		}
	}
	if tail == mixPageRank {
		t.Error("buffer was not shuffled: every PageRank query is still in the tail block")
	}
}

// readInputs returns name -> bytes of every file under dir/inputs.
func readInputs(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	entries, err := os.ReadDir(filepath.Join(dir, "inputs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, "inputs", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

func TestSameSeedSameInputs(t *testing.T) {
	g, prof := tinyGraph(t)
	write := func(seed int64) map[string][]byte {
		dir := t.TempDir()
		for _, w := range workloads {
			var err error
			if w.Serve {
				_, err = materializeSchedule(g, prof, seed, serveWarmup, 4*time.Second, w.Name, dir)
			} else if _, err = materializeBuffer(w, g, prof, seed, 0, dir); err == nil {
				_, err = materializeBuffer(w, g, prof, seed, 1, dir)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return readInputs(t, dir)
	}
	a, b, other := write(5), write(5), write(6)
	if want := 2*len(workloads) - 1; len(a) != want {
		t.Fatalf("%d input files, want two draws per offline workload and one schedule (%d)", len(a), want)
	}
	if bytes.Equal(a["road-bfs.0.queries"], a["road-bfs.1.queries"]) {
		t.Error("draws 0 and 1 of one seed are the same buffer")
	}
	for name, raw := range a {
		if !bytes.Equal(raw, b[name]) {
			t.Errorf("%s differs between two generations from seed 5", name)
		}
		if bytes.Equal(raw, other[name]) {
			t.Errorf("%s is the same for seeds 5 and 6", name)
		}
	}
}
