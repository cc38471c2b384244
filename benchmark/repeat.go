package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark itself reads: the
// names it must emit and the bound each end-to-end metric may worsen by.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) string {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	return last
}

// runRepeat is the repeatability check: every workload's untraced pass k
// times, each in a fresh process as the accepting driver runs it and each on
// its own seed, then per workload and end-to-end metric the interquartile
// spread as a share of the median, judged against the metric's bound in
// BENCHMARK.json. setup_s is printed but not judged: the driver bounds its
// median, not its spread.
func runRepeat(k int, specPath string, cfg config) (bool, error) {
	if k < 2 {
		return false, fmt.Errorf("-repeat needs at least 2 runs, got %d", k)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Printf("repeatability: %d fresh-process runs per workload, seeds %d..%d, %g s each\n", k, cfg.seed, cfg.seed+int64(k)-1, cfg.seconds)
	fmt.Printf("%-12s %-20s %12s %9s %8s  %s\n", "workload", "metric", "median", "spread", "bound", "verdict")
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < k; i++ {
			args := []string{
				"-workload", w.Name, "-trace", "0",
				"-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-out", filepath.Join(cfg.out, "repeat"),
			}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return false, fmt.Errorf("%s run %d: %w\n%s", w.Name, i, err, out)
			}
			var line resultLine
			if err := json.Unmarshal([]byte(lastLine(out)), &line); err != nil {
				return false, fmt.Errorf("%s run %d: result line: %w", w.Name, i, err)
			}
			if !line.Correct {
				return false, fmt.Errorf("%s run %d: %d of %d operations failed", w.Name, i, line.Failed, line.Attempted)
			}
			for name, v := range line.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, e := range spec.EndToEnd {
			xs := values[e.Name]
			if len(xs) != k {
				return false, fmt.Errorf("%s: metric %s emitted %d times in %d runs", w.Name, e.Name, len(xs), k)
			}
			spread := relSpread(xs)
			verdict := "ok"
			switch {
			case e.Name == "setup_s":
				verdict = "not judged"
			case spread > e.Bound:
				verdict = "UNSTEADY"
				ok = false
			case spread > e.Bound/3:
				verdict = "ok (above a third of the bound)"
			}
			fmt.Printf("%-12s %-20s %12.6g %8.2f%% %7.1f%%  %s\n", w.Name, e.Name, median(xs), 100*spread, 100*e.Bound, verdict)
			fmt.Printf("%-12s   runs:", "")
			for _, x := range xs {
				fmt.Printf(" %.5g", x)
			}
			fmt.Println()
		}
	}
	return ok, nil
}
