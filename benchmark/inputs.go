package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/workload"
)

// Fixed environment of every workload (see README.md): two processors, two
// engine workers on a dedicated pool, the facade's default method.
const (
	benchProcs   = 2
	benchWorkers = 2
	bufferSize   = 256
)

// Serving traffic shape. The rate keeps the engine busy about a third of the
// time: at 200/s (57 % busy) every slowdown of the host was amplified by
// queueing and ten runs of latency_p99_ms spread by 18-26 % of their median,
// at 120/s by 6 % (see README.md). The cache/epoch settings keep about a
// quarter of the requests on the hit path, so the median stays on the miss
// path.
const (
	serveRate        = 120.0 // arrivals per second, open loop
	serveWarmup      = 2 * time.Second
	serveTimeout     = 2 * time.Second
	serveBumpEvery   = 2 * time.Second
	serveQueueCap    = 512
	serveSourcePool  = 8192
	serveZipfS       = 1.05
	serveZipfV       = 4.0
	serveOracleCheck = 32
)

// workloadSpec is one named workload: the stable identifier, the graph it
// runs on, and how its inputs are drawn from the seed. Why each exists is
// recorded once, in BENCHMARK.json.
type workloadSpec struct {
	Name    string
	Dataset graph.Dataset
	Size    graph.SizeClass
	Batch   int // offline only; the server keeps its zero-value config
	// Buffers is how many distinct buffers the untraced offline pass cycles
	// its timed reps through: more of them average the draw of the inputs,
	// fewer give every batch more reps to be caught undisturbed in.
	Buffers int
	Serve   bool
	// buffer draws the offline query buffer (nil for the serving workload).
	buffer func(g *graph.Graph, prof *align.Profile, s seeds) []queries.Query
}

var workloads = []workloadSpec{
	{
		Name:    "social-sssp",
		Dataset: graph.LJ, Size: graph.Medium, Batch: 64, Buffers: 1,
		buffer: func(g *graph.Graph, prof *align.Profile, s seeds) []queries.Query {
			return workload.Homogeneous(queries.SSSP, workload.Sources(g, prof, bufferSize, s.sources))
		},
	},
	{
		Name:    "road-bfs",
		Dataset: graph.RDCA, Size: graph.Medium, Batch: 16, Buffers: 1,
		buffer: func(g *graph.Graph, prof *align.Profile, s seeds) []queries.Query {
			return workload.Homogeneous(queries.BFS, workload.Sources(g, prof, bufferSize, s.sources))
		},
	},
	{
		Name:    "heter-mix",
		Dataset: graph.LJ, Size: graph.Small, Batch: 16, Buffers: 2,
		buffer: heterMixBuffer,
	},
	{
		Name:    "serve-zipf",
		Dataset: graph.LJ, Size: graph.Small,
		Serve: true,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// seeds are the independent random streams of one draw, all taken from the
// single -seed in a fixed order so every input is a function of it alone.
type seeds struct {
	sources, heter, shuffle, arrivals, zipf, kernels int64
}

// deriveSeeds returns the streams of the draw-th input drawn from seed: the
// untraced offline pass cycles through draws 1, 2, ..., everything else uses
// draw 0.
func deriveSeeds(seed int64, draw int) seeds {
	rng := rand.New(rand.NewSource(seed))
	var s seeds
	for i := 0; i <= draw; i++ {
		s = seeds{rng.Int63(), rng.Int63(), rng.Int63(), rng.Int63(), rng.Int63(), rng.Int63()}
	}
	return s
}

// Heter-mix composition: 176 paper-style mixed monotone queries, 64 bounded
// reachability, 16 PageRank.
const (
	mixHeter    = 176
	mixKHop     = 64
	mixPageRank = bufferSize - mixHeter - mixKHop
)

func heterMixBuffer(g *graph.Graph, prof *align.Profile, s seeds) []queries.Query {
	src := workload.Sources(g, prof, bufferSize, s.sources)
	buf := workload.Heter(src[:mixHeter], s.heter)
	buf = append(buf, workload.Homogeneous(queries.KHop(3), src[mixHeter:mixHeter+mixKHop])...)
	buf = append(buf, workload.Homogeneous(queries.PageRank, src[mixHeter+mixKHop:])...)
	rng := rand.New(rand.NewSource(s.shuffle))
	rng.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
	return buf
}

// arrival is one scheduled request of the serving workload.
type arrival struct {
	DueNs  int64  `json:"due_ns"`
	Kernel string `json:"kernel"`
	Source uint32 `json:"source"`
}

// schedule is the persisted input of the serving workload: arrivals sorted
// by due time (the first WarmupNs of them are sent but not measured) and the
// times at which the data epoch is bumped — the write beside the reads.
type schedule struct {
	RatePerS  float64   `json:"rate_per_s"`
	WarmupNs  int64     `json:"warmup_ns"`
	WindowNs  int64     `json:"window_ns"`
	Arrivals  []arrival `json:"arrivals"`
	BumpDueNs []int64   `json:"bump_due_ns"`
}

// poissonArrivals draws the due times of a Poisson process of the given rate
// over [from, from+length), conditioned on its expected count: given their
// number, Poisson arrival times are independent uniform draws, so sorting
// round(rate*length) uniforms keeps the process's burstiness while every
// seed offers exactly the same load.
func poissonArrivals(rng *rand.Rand, rate float64, from, length time.Duration) []int64 {
	n := int(rate*length.Seconds() + 0.5)
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(from) + rng.Int63n(int64(length))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// zipfRanks draws n ranks in [0, pool) from Zipf(s, v).
func zipfRanks(rng *rand.Rand, n, pool int) []int {
	z := rand.NewZipf(rng, serveZipfS, serveZipfV, uint64(pool-1))
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = int(z.Uint64())
	}
	return ranks
}

// serveSchedule draws the serving workload's schedule: a warm-up stretch and
// a measured window of Poisson arrivals, each a BFS or SSSP query (even
// odds) from a Zipf-ranked pool of hop-bin-sampled sources.
func serveSchedule(g *graph.Graph, prof *align.Profile, s seeds, warmup, window time.Duration) schedule {
	pool := workload.Sources(g, prof, min(serveSourcePool, g.NumVertices()), s.sources)
	arr := rand.New(rand.NewSource(s.arrivals))
	due := append(poissonArrivals(arr, serveRate, 0, warmup),
		poissonArrivals(arr, serveRate, warmup, window)...)
	ranks := zipfRanks(rand.New(rand.NewSource(s.zipf)), len(due), len(pool))
	kern := rand.New(rand.NewSource(s.kernels))
	sc := schedule{RatePerS: serveRate, WarmupNs: int64(warmup), WindowNs: int64(window)}
	for i, d := range due {
		k := queries.BFS
		if kern.Intn(2) == 1 {
			k = queries.SSSP
		}
		sc.Arrivals = append(sc.Arrivals, arrival{DueNs: d, Kernel: k.Name(), Source: uint32(pool[ranks[i]])})
	}
	for t := serveBumpEvery; t < warmup+window; t += serveBumpEvery {
		sc.BumpDueNs = append(sc.BumpDueNs, int64(t))
	}
	return sc
}

func saveSchedule(path string, sc schedule) error {
	raw, err := json.Marshal(sc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func loadSchedule(path string) (schedule, error) {
	var sc schedule
	raw, err := os.ReadFile(path)
	if err != nil {
		return sc, err
	}
	if err := json.Unmarshal(raw, &sc); err != nil {
		return sc, fmt.Errorf("benchmark: %s: %w", path, err)
	}
	return sc, nil
}

// inputsDir returns DIR/inputs, creating it.
func inputsDir(out string) (string, error) {
	dir := filepath.Join(out, "inputs")
	return dir, os.MkdirAll(dir, 0o755)
}

// materializeBuffer draws the offline workload's draw-th buffer, persists it
// under DIR/inputs and hands back what a reader of that file gets: the
// program under test sees only the generated inputs.
func materializeBuffer(w workloadSpec, g *graph.Graph, prof *align.Profile, seed int64, draw int, out string) ([]queries.Query, error) {
	dir, err := inputsDir(out)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.%d.queries", w.Name, draw))
	if err := workload.SaveBuffer(path, w.buffer(g, prof, deriveSeeds(seed, draw))); err != nil {
		return nil, err
	}
	return workload.LoadBuffer(path, g.NumVertices())
}

// materializeSchedule is materializeBuffer for the serving workload.
func materializeSchedule(g *graph.Graph, prof *align.Profile, seed int64, warmup, window time.Duration, stem, out string) (schedule, error) {
	dir, err := inputsDir(out)
	if err != nil {
		return schedule{}, err
	}
	path := filepath.Join(dir, stem+".schedule.json")
	if err := saveSchedule(path, serveSchedule(g, prof, deriveSeeds(seed, 0), warmup, window)); err != nil {
		return schedule{}, err
	}
	return loadSchedule(path)
}
