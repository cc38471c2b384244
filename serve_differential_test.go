package glign

import (
	"context"
	"fmt"
	"testing"

	"github.com/glign/glign/internal/align"
	"github.com/glign/glign/internal/graph"
	"github.com/glign/glign/internal/par"
	"github.com/glign/glign/internal/queries"
	"github.com/glign/glign/internal/serve"
	"github.com/glign/glign/internal/systems"
)

// Serve-vs-offline differential: streaming a seeded query sequence through
// the live server must yield, query for query, the values an offline
// systems.Run produces for the same buffer under the same method. The live
// batches form however the stream meets the engine — a monotone query's
// fixed point does not depend on its batch-mates — so the values must match
// whatever the batch geometry. Seeds follow the GLIGN_DIFF_SEED convention of
// differential_test.go.

const serveDiffStream = 10 // queries per streamed case

func TestServeMatchesOffline(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	g := graph.MustGenerate(graph.LJ, graph.Tiny)
	prof := align.NewProfile(g, align.DefaultHubCount, 0)
	base := diffBaseSeed(t)

	for _, method := range []string{systems.Glign, systems.LigraC} {
		for _, k := range []queries.Kernel{queries.BFS, queries.SSSP} {
			name := fmt.Sprintf("%s/%s", method, k.Name())
			seed := caseSeed(base, "serve/"+name)
			t.Run(name, func(t *testing.T) {
				ctx := repro(base, "rmat-LJ", k.Name(), method, 4)
				srcs := sampleSources(seed, g.NumVertices(), serveDiffStream)
				buffer := make([]queries.Query, len(srcs))
				for i, s := range srcs {
					buffer[i] = queries.Query{Kernel: k, Source: s}
				}

				// Offline ground truth: one systems.Run over the whole
				// buffer with the serving batch size.
				res, err := systems.Run(method, g, buffer, systems.Config{
					BatchSize:  diffBatchSize,
					Workers:    4,
					Pool:       pool,
					Profile:    prof,
					KeepValues: true,
				})
				if err != nil {
					t.Fatalf("offline run: %v [case seed %d, %s]", err, seed, ctx)
				}

				// Online: stream the same queries through a live server.
				srv, err := serve.New(g, serve.Config{
					Method:        method,
					BatchSize:     diffBatchSize,
					QueueCapacity: 2 * serveDiffStream,
					Workers:       4,
					Pool:          pool,
					Profile:       prof,
				})
				if err != nil {
					t.Fatalf("serve.New: %v [case seed %d, %s]", seed, base, err)
				}
				streamPass := func(label string) []*serve.Ticket {
					tickets := make([]*serve.Ticket, len(buffer))
					for i, q := range buffer {
						tk, err := srv.Submit(context.Background(), q)
						if err != nil {
							t.Fatalf("%s submit %d: %v [case seed %d, %s]", label, i, err, seed, ctx)
						}
						tickets[i] = tk
					}
					return tickets
				}
				checkPass := func(label string, tickets []*serve.Ticket) {
					for i, tk := range tickets {
						got, err := tk.Wait(context.Background())
						if err != nil {
							t.Fatalf("%s query %d (source v%d): %v [case seed %d, %s]",
								label, i, buffer[i].Source, err, seed, ctx)
						}
						want := res.Values[i]
						if len(got) != len(want) {
							t.Fatalf("%s query %d (source v%d): %d values, want %d [case seed %d, %s]",
								label, i, buffer[i].Source, len(got), len(want), seed, ctx)
						}
						for v := range want {
							if got[v] != want[v] {
								t.Fatalf("%s query %d (source v%d) served != offline at vertex %d: %v != %v [case seed %d, %s]",
									label, i, buffer[i].Source, v, got[v], want[v], seed, ctx)
							}
						}
					}
				}

				// Pass 1 — computed: 10 queries, batched by size and by the
				// idle engine.
				pass1 := streamPass("pass 1")
				checkPass("pass 1", pass1)
				batchesComputed := srv.Stats().Batches

				// Pass 2 — cached replay: the identical stream must be served
				// from the result cache byte-for-byte identical to the
				// computed pass, with zero additional engine batches.
				pass2 := streamPass("cached pass")
				checkPass("cached pass", pass2)
				if err := srv.Close(); err != nil {
					t.Fatalf("close: %v [case seed %d, %s]", err, seed, ctx)
				}
				st := srv.Stats()
				if st.Batches != batchesComputed {
					t.Errorf("cached pass executed %d extra batches [case seed %d, %s]",
						st.Batches-batchesComputed, seed, ctx)
				}
				if st.CacheHits == 0 {
					t.Errorf("cached pass recorded no cache hits [case seed %d, %s]", seed, ctx)
				}
				for i, tk1 := range pass1 {
					v1, _ := tk1.Wait(context.Background())
					v2, _ := pass2[i].Wait(context.Background())
					for v := range v1 {
						if v1[v] != v2[v] {
							t.Fatalf("cached query %d differs from computed at vertex %d: %v != %v [case seed %d, %s]",
								i, v, v2[v], v1[v], seed, ctx)
						}
					}
				}
			})
		}
	}
}
