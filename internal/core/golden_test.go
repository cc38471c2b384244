package core_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/glign/glign/internal/cachesim"
	"github.com/glign/glign/internal/core"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/engine_golden.json from the current engines")

const goldenPath = "testdata/engine_golden.json"

// goldenRun is everything a serial run of one frontier engine is pinned to:
// iteration shape, work counters, the telemetry stream, final values and —
// under a recording tracer — the simulated address stream and the LLC misses
// it produces. EXPERIMENTS.md's simulator tables (9/10/12, abl-llc,
// abl-order) are functions of exactly these.
type goldenRun struct {
	GlobalIterations   int    `json:"global_iterations"`
	UnionFrontierSizes []int  `json:"union_frontier_sizes"`
	EdgesProcessed     int64  `json:"edges_processed"`
	LaneRelaxations    int64  `json:"lane_relaxations"`
	ValueWrites        int64  `json:"value_writes"`
	IterationsFNV      string `json:"iteration_stats_fnv1a"`
	ValuesFNV          string `json:"values_fnv1a"`

	TracedAccesses  int64  `json:"traced_accesses"`
	TracedReads     int64  `json:"traced_reads"`
	TracedWrites    int64  `json:"traced_writes"`
	TracedStreamFNV string `json:"traced_stream_fnv1a"`
	TracedLLCMisses int64  `json:"traced_llc_misses"`
	TracedValuesFNV string `json:"traced_values_fnv1a"`
}

// recordingTracer hashes the (addr, size, write) sequence access for access
// and replays it against the default LLC model.
type recordingTracer struct {
	reads, writes int64
	stream        hash.Hash64
	llc           *cachesim.Cache
}

func newRecordingTracer() *recordingTracer {
	return &recordingTracer{stream: fnv.New64a(), llc: cachesim.New(cachesim.DefaultLLC())}
}

func (r *recordingTracer) Access(addr, size int64, write bool) {
	var rec [17]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(addr))
	binary.LittleEndian.PutUint64(rec[8:], uint64(size))
	if write {
		rec[16] = 1
		r.writes++
	} else {
		r.reads++
	}
	r.stream.Write(rec[:])
	r.llc.Access(addr, size, write)
}

func hex64(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }

func valuesFNV(res *core.BatchResult) string {
	h := fnv.New64a()
	var cell [8]byte
	for q := 0; q < res.B; q++ {
		for _, x := range res.QueryValues(q) {
			binary.LittleEndian.PutUint64(cell[:], math.Float64bits(x))
			h.Write(cell[:])
		}
	}
	return hex64(h)
}

func goldenOf(t *testing.T, e core.Engine, g *graph.Graph, batch []queries.Query, opt core.Options) goldenRun {
	t.Helper()
	opt.Workers = 1

	plain := opt
	run := telemetry.NewCollector().StartRun(e.Name(), "golden")
	bt := run.StartBatch(e.Name(), nil, opt.Alignment)
	plain.Telemetry = bt
	res, err := e.Run(g, batch, plain)
	if err != nil {
		t.Fatalf("%s: %v", e.Name(), err)
	}
	stats, err := json.Marshal(bt.Snapshot().Iterations)
	if err != nil {
		t.Fatal(err)
	}
	ih := fnv.New64a()
	ih.Write(stats)
	out := goldenRun{
		GlobalIterations:   res.GlobalIterations,
		UnionFrontierSizes: core.FrontierSizes(bt),
		EdgesProcessed:     res.EdgesProcessed,
		LaneRelaxations:    res.LaneRelaxations,
		ValueWrites:        res.ValueWrites,
		IterationsFNV:      hex64(ih),
		ValuesFNV:          valuesFNV(res),
	}

	traced := opt
	tr := newRecordingTracer()
	traced.Tracer = tr
	tres, err := e.Run(g, batch, traced)
	if err != nil {
		t.Fatalf("%s traced: %v", e.Name(), err)
	}
	out.TracedAccesses = tr.reads + tr.writes
	out.TracedReads = tr.reads
	out.TracedWrites = tr.writes
	out.TracedStreamFNV = hex64(tr.stream)
	out.TracedLLCMisses = tr.llc.Misses()
	out.TracedValuesFNV = valuesFNV(tres)
	return out
}

// reachedLaneRelaxations is what Glign-Intra's lane_relaxations read on each
// golden case when an active vertex relaxed every lane that had reached it,
// before it relaxed only the changed ones: a ceiling no regeneration of the
// golden may lift.
var reachedLaneRelaxations = map[string]int64{
	"Glign-Intra/LJ/aligned":    79442,
	"Glign-Intra/LJ/delayed":    94351,
	"Glign-Intra/RD-CA/aligned": 52881,
	"Glign-Intra/RD-CA/delayed": 53421,
}

// TestEngineGolden pins the serial behaviour of the four frontier engines —
// Glign-Intra, Ligra-C, Krill and GraphM — on a hub graph and a road graph, with and without delayed start,
// against testdata/engine_golden.json. Regenerate with
//
//	go test ./internal/core -run TestEngineGolden -update
//
// only when a change is meant to alter engine behaviour or the cache model.
func TestEngineGolden(t *testing.T) {
	engines := []core.Engine{core.GlignIntra, core.LigraC, core.Krill, core.GraphM}
	alignments := map[string][]int{"aligned": nil, "delayed": {2, 0, 5, 1}}
	got := map[string]goldenRun{}
	for _, ds := range []graph.Dataset{graph.LJ, graph.RDCA} {
		g := graph.MustGenerate(ds, graph.Tiny)
		batch := []queries.Query{
			{Kernel: queries.BFS, Source: 3},
			{Kernel: queries.SSSP, Source: 9},
			{Kernel: queries.SSWP, Source: 21},
			{Kernel: queries.KHop(3), Source: 40},
		}
		for name, align := range alignments {
			for _, e := range engines {
				key := fmt.Sprintf("%s/%s/%s", e.Name(), ds, name)
				got[key] = goldenOf(t, e, g, batch, core.Options{Alignment: align})
			}
		}
	}
	for key, ceiling := range reachedLaneRelaxations {
		if got[key].LaneRelaxations > ceiling {
			t.Errorf("%s: %d lane relaxations, more than the %d of relaxing every reached lane", key, got[key].LaneRelaxations, ceiling)
		}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if bytes.Equal(want, data) {
		return
	}
	var wantRuns map[string]goldenRun
	if err := json.Unmarshal(want, &wantRuns); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for key, g := range got {
		w, ok := wantRuns[key]
		if !ok {
			t.Errorf("%s: not in golden", key)
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s drifted:\n got %s\nwant %s", key, gj, wj)
		}
	}
	t.Fatalf("%s differs from the current engines", goldenPath)
}
