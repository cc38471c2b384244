// Command glign evaluates a buffer of concurrent graph queries on a graph,
// with any of the evaluation methods of the paper (Glign variants and
// baselines), and prints timing and result summaries.
//
// Examples:
//
//	# 64 SSSP queries on a synthetic LiveJournal stand-in, full Glign
//	glign -dataset LJ -size small -kernel SSSP -n 64
//
//	# compare methods on the same buffer
//	glign -dataset TW -size small -kernel BFS -n 128 -method Ligra-C
//	glign -dataset TW -size small -kernel BFS -n 128 -method Glign
//
//	# explicit sources on a graph loaded from disk
//	glign -graph web.txt -directed -kernel SSWP -sources 3,17,99
//
//	# observe the run: expvar + pprof endpoint and a JSON metrics snapshot
//	glign -dataset LJ -size small -kernel SSSP -n 64 -listen :6060 -metrics-out metrics.json
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -listen endpoint
	"os"
	"strconv"
	"strings"

	glign "github.com/glign/glign"
	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/perf"
	"github.com/glign/glign/internal/telemetry"
	"github.com/glign/glign/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "glign:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphPath = flag.String("graph", "", "graph file to load (.bin or edge list); exclusive with -dataset")
		directed  = flag.Bool("directed", true, "treat -graph edge list as directed")
		dataset   = flag.String("dataset", "", "synthetic dataset to generate (LJ, WP, UK2, TW, FR, RD-CA, RD-US)")
		size      = flag.String("size", "small", "synthetic size class (tiny, small, medium)")
		kernel    = flag.String("kernel", "SSSP", "query kernel (BFS, SSSP, SSWP, SSNP, Viterbi, PageRank, LabelProp, KHOP or KHOP<k>) or Heter")
		n         = flag.Int("n", 64, "number of queries (sources sampled with the paper's hop-bin strategy)")
		sources   = flag.String("sources", "", "comma-separated explicit source vertices (overrides -n)")
		queryFile = flag.String("queries", "", "load the query buffer from a file (overrides -kernel/-n/-sources)")
		saveQuery = flag.String("save-queries", "", "save the evaluated query buffer to a file for replay")
		method    = flag.String("method", glign.MethodGlign, "evaluation method: "+strings.Join(glign.Methods(), ", "))
		batch     = flag.Int("batch", 64, "batch size |B|")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		seed      = flag.Int64("seed", 1, "workload sampling seed")
		verbose   = flag.Bool("v", false, "print per-query summaries")
		verify    = flag.Int("verify", 0, "verify this many queries against an independent reference (0 = none, -1 = all)")
		listen    = flag.String("listen", "", "serve live telemetry (expvar at /debug/vars) and pprof (/debug/pprof) on this address during evaluation, e.g. :6060")
		hold      = flag.Bool("hold", false, "with -listen: keep serving after evaluation until interrupted")
		metricOut = flag.String("metrics-out", "", "write the telemetry snapshot as JSON to this file")
	)
	flag.Parse()

	var tel *glign.Telemetry
	if *listen != "" || *metricOut != "" {
		tel = glign.NewTelemetry()
		telemetry.Publish("glign", tel)
	}
	if *listen != "" {
		go func() {
			if err := http.ListenAndServe(*listen, nil); err != nil {
				fmt.Fprintln(os.Stderr, "glign: -listen:", err)
			}
		}()
		fmt.Printf("serving telemetry on http://%s/debug/vars (pprof at /debug/pprof)\n", *listen)
	}

	g, err := loadGraph(*graphPath, *directed, *dataset, *size)
	if err != nil {
		return err
	}
	fmt.Println(g)

	var buffer []glign.Query
	if *queryFile != "" {
		buffer, err = workload.LoadBuffer(*queryFile, g.NumVertices())
	} else {
		buffer, err = buildBuffer(g, *kernel, *n, *sources, *seed, *workers)
	}
	if err != nil {
		return err
	}
	if *saveQuery != "" {
		if err := workload.SaveBuffer(*saveQuery, buffer); err != nil {
			return err
		}
	}

	rt, err := glign.NewRuntime(g,
		glign.WithMethod(*method),
		glign.WithBatchSize(*batch),
		glign.WithWorkers(*workers),
		glign.WithTelemetry(tel))
	if err != nil {
		return err
	}
	rep, err := rt.Run(buffer)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d queries in %d batches, %d global iterations, %.3fs\n",
		*method, rep.NumQueries(), len(rep.Batches()), rep.TotalIterations(),
		rep.DurationSeconds())
	if *verify != 0 {
		n := *verify
		if n < 0 {
			n = len(buffer)
		}
		if err := rep.Verify(n); err != nil {
			return err
		}
		fmt.Printf("verified %d queries against the serial reference\n", min(n, len(buffer)))
	}
	if *verbose {
		for i, q := range buffer {
			fmt.Printf("  %-14s reached %d vertices\n", q.String(), rep.Reached(i))
		}
	}
	if tel != nil {
		c := tel.Counters.Snapshot()
		fmt.Printf("telemetry: %d iterations, %d edges processed, %d lane relaxations, %d value writes, %d delayed starts\n",
			c.Iterations, c.EdgesProcessed, c.LaneRelaxations, c.ValueWrites, c.DelayedQueries)
	}
	if *metricOut != "" {
		if err := perf.WriteJSONAtomic(*metricOut, tel.Snapshot()); err != nil {
			return err
		}
		fmt.Printf("telemetry snapshot written to %s\n", *metricOut)
	}
	if *listen != "" && *hold {
		fmt.Printf("evaluation done; still serving on %s (interrupt to exit)\n", *listen)
		select {}
	}
	return nil
}

func loadGraph(path string, directed bool, dataset, size string) (*glign.Graph, error) {
	switch {
	case path != "" && dataset != "":
		return nil, fmt.Errorf("use either -graph or -dataset, not both")
	case path != "":
		return glign.LoadGraph(path, directed)
	case dataset != "":
		return glign.Generate(dataset, size)
	default:
		return nil, fmt.Errorf("one of -graph or -dataset is required")
	}
}

func buildBuffer(g *glign.Graph, kernel string, n int, sourcesCSV string, seed int64, workers int) ([]glign.Query, error) {
	var srcs []graph.VertexID
	if sourcesCSV != "" {
		for _, f := range strings.Split(sourcesCSV, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad source %q: %v", f, err)
			}
			if int(v) >= g.NumVertices() {
				return nil, fmt.Errorf("source %d out of range (n=%d)", v, g.NumVertices())
			}
			srcs = append(srcs, graph.VertexID(v))
		}
	} else {
		prof := align.NewProfile(g, align.DefaultHubCount, workers)
		srcs = workload.Sources(g, prof, n, seed)
	}
	return workload.BufferFor(kernel, srcs, seed)
}
