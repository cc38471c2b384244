// Command glign-serve runs the live query-serving loop over HTTP: it loads
// or generates a graph, starts a glign.Server (bounded admission, windowed
// batching, result cache with epoch invalidation, in-flight dedup, tiered
// load-shedding, engine execution on the shared pool), and answers JSON
// query submissions until interrupted, then drains in-flight batches and
// exits. SERVING.md documents the serving contract end to end, including a
// worked curl session against this command.
//
// Examples:
//
//	# serve full-Glign batches on a synthetic LiveJournal stand-in
//	glign-serve -dataset LJ -size small -addr :8080
//
//	# submit a query and read the result (repeat it to hit the cache)
//	curl -s localhost:8080/query -d '{"kernel":"SSSP","source":42,"targets":[0,7]}'
//
//	# a high-priority query that may shed queued low-priority ones
//	curl -s localhost:8080/query -d '{"kernel":"BFS","source":7,"priority":"high"}'
//
//	# invalidate cached results after a graph data change
//	curl -s -X POST localhost:8080/epoch
//
//	# expvar + pprof observability endpoint alongside the query port
//	glign-serve -dataset LJ -size small -addr :8080 -listen :6060
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -listen endpoint
	"os"
	"os/signal"
	"syscall"
	"time"

	glign "github.com/glign/glign"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/serve"
	"github.com/glign/glign/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "glign-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphPath = flag.String("graph", "", "graph file to load (.bin or edge list); exclusive with -dataset")
		directed  = flag.Bool("directed", true, "treat -graph edge list as directed")
		dataset   = flag.String("dataset", "", "synthetic dataset to generate (LJ, WP, UK2, TW, FR, RD-CA, RD-US)")
		size      = flag.String("size", "small", "synthetic size class (tiny, small, medium)")
		method    = flag.String("method", glign.MethodGlign, "evaluation method")
		batch     = flag.Int("batch", 64, "batch size cap |B|")
		window    = flag.Duration("window", 5*time.Millisecond, "batching window: max wait before flushing a partial batch")
		queueCap  = flag.Int("queue", 1024, "admission queue capacity (submits beyond it shed lower tiers or are rejected)")
		cacheCap  = flag.Int("cache", 1024, "result cache capacity in entries (0 disables caching)")
		admission = flag.String("admission", "", "admission ordering: fcfs, affinity, or empty to follow the method")
		workers   = flag.Int("workers", 0, "worker goroutines per batch (0 = GOMAXPROCS)")
		deadline  = flag.Duration("deadline", 0, "default per-query deadline (0 = none; requests can override with timeout_ms)")
		addr      = flag.String("addr", ":8080", "query endpoint address (POST /query, GET|POST /epoch, GET /healthz, GET /stats)")
		listen    = flag.String("listen", "", "serve live telemetry (expvar at /debug/vars) and pprof (/debug/pprof) on this address, e.g. :6060")
	)
	flag.Parse()

	tel := glign.NewTelemetry()
	if *listen != "" {
		telemetry.Publish("glign", tel)
		go func() {
			if err := http.ListenAndServe(*listen, nil); err != nil {
				fmt.Fprintln(os.Stderr, "glign-serve: -listen:", err)
			}
		}()
		fmt.Printf("serving telemetry on http://%s/debug/vars (pprof at /debug/pprof)\n", *listen)
	}

	g, err := loadGraph(*graphPath, *directed, *dataset, *size)
	if err != nil {
		return err
	}
	fmt.Println(g)

	// The flag's 0 means "no caching"; the library's 0 means "default
	// capacity" with negative disabling, so translate here at the edge.
	cacheCapacity := *cacheCap
	if cacheCapacity == 0 {
		cacheCapacity = -1
	}
	srv, err := glign.Serve(g, glign.ServeConfig{
		Method:          *method,
		BatchSize:       *batch,
		Window:          *window,
		QueueCapacity:   *queueCap,
		CacheCapacity:   cacheCapacity,
		AdmissionPolicy: *admission,
		Workers:         *workers,
		Telemetry:       tel,
	})
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/query", queryHandler(g, srv, *deadline))
	mux.HandleFunc("/epoch", epochHandler(srv))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "ok %s\n", srv.Method())
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(srv.Stats())
	})
	httpSrv := &http.Server{Addr: *addr, Handler: mux}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("%s method serving queries on http://%s/query (batch %d, window %v, queue %d, cache %d, admission %q)\n",
		*method, *addr, *batch, *window, *queueCap, *cacheCap, *admission)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Close()
		return err
	case sig := <-sigc:
		fmt.Printf("\n%v: draining in-flight batches...\n", sig)
	}

	// Stop accepting HTTP first so no new submits race the drain, then
	// drain the admission queue and join the serving goroutines.
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "glign-serve: http shutdown:", err)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Printf("served %d of %d admitted queries in %d batches (%d window / %d size / %d drain flushes; %d rejected full, %d deadline misses)\n",
		st.Completed, st.Admitted, st.Batches, st.WindowFlushes, st.SizeFlushes, st.DrainFlushes,
		st.RejectedFull, st.DeadlineMisses)
	fmt.Printf("traffic shaping: %d cache hits / %d misses (%d invalidated, %d evicted), %d coalesced, %d reordered, %d shed, epoch %d\n",
		st.CacheHits, st.CacheMisses, st.CacheInvalidations, st.CacheEvictions,
		st.DedupCoalesced, st.AdmissionReorders, st.Shed, st.Epoch)
	return nil
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Kernel    string           `json:"kernel"`
	Source    uint32           `json:"source"`
	TimeoutMS int64            `json:"timeout_ms,omitempty"`
	Priority  string           `json:"priority,omitempty"` // low | normal | high (default normal)
	Targets   []graph.VertexID `json:"targets,omitempty"`
}

// queryResponse is the reply: the reach count and the data epoch the result
// was computed at always, plus the value at each requested target (null when
// the target was not reached).
type queryResponse struct {
	Kernel  string              `json:"kernel"`
	Source  graph.VertexID      `json:"source"`
	Reached int                 `json:"reached"`
	Epoch   int64               `json:"epoch"`
	Values  map[string]*float64 `json:"values,omitempty"`
}

// maxQueryBody bounds a POST /query body: a request is a few fields and a
// list of targets, and 1 MiB is tens of thousands of those.
const maxQueryBody = 1 << 20

func queryHandler(g *glign.Graph, srv *glign.Server, defaultDeadline time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req queryRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad request: "+err.Error(), status)
			return
		}
		k, err := queries.ByName(req.Kernel)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if int(req.Source) >= g.NumVertices() {
			http.Error(w, fmt.Sprintf("source %d out of range (n=%d)", req.Source, g.NumVertices()), http.StatusBadRequest)
			return
		}
		tier, err := serve.TierByName(req.Priority)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		timeout := defaultDeadline
		if req.TimeoutMS > math.MaxInt64/int64(time.Millisecond) {
			// The product below would wrap, and a wrapped deadline is none.
			http.Error(w, fmt.Sprintf("timeout_ms %d overflows a duration", req.TimeoutMS), http.StatusBadRequest)
			return
		}
		if req.TimeoutMS > 0 {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
		q := glign.Query{Kernel: k, Source: graph.VertexID(req.Source)}
		ticket, err := srv.SubmitWith(r.Context(), q, glign.SubmitOptions{Timeout: timeout, Tier: tier})
		if err != nil {
			http.Error(w, err.Error(), rejectStatus(err))
			return
		}
		vals, err := ticket.Wait(r.Context())
		if err != nil {
			http.Error(w, err.Error(), rejectStatus(err))
			return
		}
		resp := queryResponse{Kernel: req.Kernel, Source: q.Source, Reached: reached(k, vals), Epoch: ticket.ResultEpoch()}
		if len(req.Targets) > 0 {
			resp.Values = make(map[string]*float64, len(req.Targets))
			for _, tgt := range req.Targets {
				key := fmt.Sprintf("%d", tgt)
				if int(tgt) >= len(vals) || math.IsInf(vals[tgt], 0) || vals[tgt] == k.Identity() {
					resp.Values[key] = nil
					continue
				}
				v := vals[tgt]
				resp.Values[key] = &v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}
}

// epochHandler reads (GET) or bumps (POST) the server's data epoch. Bumping
// is the cache-invalidation hook for external graph data changes: every
// result cached at an older epoch stops being served immediately.
func epochHandler(srv *glign.Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var epoch int64
		switch r.Method {
		case http.MethodGet:
			epoch = srv.Epoch()
		case http.MethodPost:
			epoch = srv.BumpEpoch()
		default:
			http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]int64{"epoch": epoch})
	}
}

// rejectStatus maps the server's typed errors onto HTTP status codes.
func rejectStatus(err error) int {
	switch {
	case errors.Is(err, glign.ErrQueueFull), errors.Is(err, glign.ErrQueryShed):
		return http.StatusTooManyRequests
	case errors.Is(err, glign.ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, glign.ErrQueryDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// reached counts the vertices the query converged on (value moved off the
// kernel's identity element).
func reached(k queries.Kernel, vals []queries.Value) int {
	id := k.Identity()
	count := 0
	for _, v := range vals {
		if v != id {
			count++
		}
	}
	return count
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
