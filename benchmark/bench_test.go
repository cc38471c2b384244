package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// specPath is BENCHMARK.json at the repository root, one level above this
// module.
const specPath = "../BENCHMARK.json"

// The metric and workload lists in this package and in BENCHMARK.json are
// one contract written twice; hold them equal.
func TestSpecMatchesDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the benchmark emits %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if e := spec.EndToEnd[i]; e.Name != d.Name || e.Unit != d.Unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %s [%s], the benchmark %s [%s]", i, e.Name, e.Unit, d.Name, d.Unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the benchmark emits %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if e := spec.PerLayer[i]; e.Name != d.Name || e.Unit != d.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s [%s], the benchmark %s [%s]", i, e.Name, e.Unit, d.Name, d.Unit)
		}
	}
}

// checkLine asserts a result line carries exactly the declared metrics, each
// finite and with its unit, and that nothing failed.
func checkLine(t *testing.T, workload, pass string, line resultLine, defs []metricDef) {
	t.Helper()
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s %s: correct=%v attempted=%d failed=%d", workload, pass, line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s %s: %d metrics emitted, %d declared", workload, pass, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := line.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s %s: metric %s missing", workload, pass, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s %s: metric %s has unit %q, want %q", workload, pass, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s %s: metric %s = %v is not finite", workload, pass, d.Name, v.Value)
		}
	}
}

// TestSmoke runs the whole benchmark at smoke scale: every workload, both
// passes, the oracle checks, results.json and trace.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving workload on the real clock for several seconds")
	}
	dir := t.TempDir()
	start := time.Now()
	out, ok, err := runAll(config{seed: 1, seconds: 1, smoke: true, out: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a pass reported failed operations")
	}
	// Meant to stay under 10 s; not asserted, the race detector alone makes
	// it ten times that.
	t.Logf("smoke run took %v", time.Since(start))
	for _, w := range workloads {
		e, found := out.EndToEnd[w.Name]
		if !found {
			t.Fatalf("workload %s has no end-to-end result", w.Name)
		}
		checkLine(t, w.Name, "end to end", e, endToEnd)
		for _, d := range endToEnd {
			if e.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, e.Metrics[d.Name].Value)
			}
		}
		p, found := out.PerLayer[w.Name]
		if !found {
			t.Fatalf("workload %s has no per-layer result", w.Name)
		}
		checkLine(t, w.Name, "per layer", p, perLayer)
	}
	if len(out.EndToEnd) != len(workloads) || len(out.PerLayer) != len(workloads) {
		t.Errorf("results cover %d/%d workloads, want %d", len(out.EndToEnd), len(out.PerLayer), len(workloads))
	}

	raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Schema != traceSchema || len(tf.Spans) == 0 {
		t.Fatalf("trace.json: schema %q, %d spans", tf.Schema, len(tf.Spans))
	}
	seen := map[string]bool{}
	for i, s := range tf.Spans {
		seen[s.Workload] = true
		if s.ID != i {
			t.Fatalf("span %d has ID %d", i, s.ID)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Errorf("span %d (%s) names parent %d, which was opened after it", s.ID, s.Name, s.Parent)
			continue
		}
		// A child is opened inside its parent and of its workload. Ticket
		// spans may end after the submit loop's bookkeeping but never after
		// the session that owns them.
		p := tf.Spans[s.Parent]
		if s.Workload != p.Workload || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d (%s, %d..%d) does not nest in parent %d (%s, %d..%d)",
				s.ID, s.Name, s.StartNs, s.EndNs, p.ID, p.Name, p.StartNs, p.EndNs)
		}
	}
	for _, w := range workloads {
		if !seen[w.Name] {
			t.Errorf("trace.json has no span of workload %s", w.Name)
		}
	}
}
