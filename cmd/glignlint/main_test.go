package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/glign/glign/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// runAnalyzer runs exactly one analyzer over the given fixture patterns
// (relative to this package directory, which is the test working directory).
func runAnalyzer(t *testing.T, name string, patterns ...string) []lint.Finding {
	t.Helper()
	as, err := lint.Select(name)
	if err != nil {
		t.Fatalf("Select(%q): %v", name, err)
	}
	findings, err := lint.Run(as, patterns)
	if err != nil {
		t.Fatalf("Run(%q, %v): %v", name, patterns, err)
	}
	return findings
}

// formatFindings renders findings with file paths relative to testdata/src.
// Finding paths are already module-relative (lint.Run rewrites them), so this
// only strips the fixture-tree prefix to keep the goldens short.
func formatFindings(t *testing.T, findings []lint.Finding) string {
	t.Helper()
	var b strings.Builder
	for _, f := range findings {
		f.File = strings.TrimPrefix(f.File, "cmd/glignlint/testdata/src/")
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares got against testdata/golden/<name>.txt, rewriting the
// golden when the test runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// counts tallies active vs suppressed findings.
func counts(findings []lint.Finding) (active, suppressed int) {
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		} else {
			active++
		}
	}
	return
}

func TestAtomicMixFixture(t *testing.T) {
	findings := runAnalyzer(t, "atomicmix", "testdata/src/atomicmix")
	got := formatFindings(t, findings)
	checkGolden(t, "atomicmix", got)
	if active, suppressed := counts(findings); active < 2 || suppressed != 1 {
		t.Errorf("want >=2 active and exactly 1 suppressed, got %d/%d:\n%s", active, suppressed, got)
	}
	for _, clean := range []string{"bumpPlain", "headerUses", "record", "casWord"} {
		if strings.Contains(got, clean) {
			t.Errorf("false positive in %s:\n%s", clean, got)
		}
	}
}

func TestParCaptureFixture(t *testing.T) {
	findings := runAnalyzer(t, "parcapture", "testdata/src/parcapture")
	got := formatFindings(t, findings)
	checkGolden(t, "parcapture", got)
	if active, suppressed := counts(findings); active < 2 || suppressed != 1 {
		t.Errorf("want >=2 active and exactly 1 suppressed, got %d/%d:\n%s", active, suppressed, got)
	}
	for _, clean := range []string{"sumAtomic", "fillDisjoint", "reduceClean"} {
		if strings.Contains(got, clean) {
			t.Errorf("false positive in %s:\n%s", clean, got)
		}
	}
}

func TestNilRecvFixture(t *testing.T) {
	findings := runAnalyzer(t, "nilrecv", "testdata/src/nilrecv")
	got := formatFindings(t, findings)
	checkGolden(t, "nilrecv", got)
	if active, suppressed := counts(findings); active < 2 || suppressed != 1 {
		t.Errorf("want >=2 active and exactly 1 suppressed, got %d/%d:\n%s", active, suppressed, got)
	}
	for _, clean := range []string{"Observe", "helper"} {
		if strings.Contains(got, clean) {
			t.Errorf("false positive in %s:\n%s", clean, got)
		}
	}
}

func TestKernelMonoFixture(t *testing.T) {
	findings := runAnalyzer(t, "kernelmono", "testdata/src/kernelmono")
	got := formatFindings(t, findings)
	checkGolden(t, "kernelmono", got)
	if active, suppressed := counts(findings); active < 2 || suppressed != 1 {
		t.Errorf("want >=2 active and exactly 1 suppressed, got %d/%d:\n%s", active, suppressed, got)
	}
	if strings.Contains(got, "good") {
		t.Errorf("false positive on the pure kernel:\n%s", got)
	}
}

func TestHotAllocFixture(t *testing.T) {
	findings := runAnalyzer(t, "hotalloc", "testdata/src/hotalloc")
	got := formatFindings(t, findings)
	checkGolden(t, "hotalloc", got)
	if active, suppressed := counts(findings); active < 3 || suppressed != 1 {
		t.Errorf("want >=3 active and exactly 1 suppressed, got %d/%d:\n%s", active, suppressed, got)
	}
	for _, clean := range []string{"sizes", "lanes", "history"} {
		if strings.Contains(got, "append to "+clean) {
			t.Errorf("false positive on reserved slice %s:\n%s", clean, got)
		}
	}
}

func TestWaitJoinFixture(t *testing.T) {
	findings := runAnalyzer(t, "waitjoin", "testdata/src/waitjoin")
	got := formatFindings(t, findings)
	checkGolden(t, "waitjoin", got)
	if active, suppressed := counts(findings); active < 2 || suppressed != 1 {
		t.Errorf("want >=2 active and exactly 1 suppressed, got %d/%d:\n%s", active, suppressed, got)
	}
	for _, clean := range []string{"fanOut", "deferred", "collect", "in newPool "} {
		if strings.Contains(got, clean) {
			t.Errorf("false positive in %s:\n%s", clean, got)
		}
	}
}

// TestWaitJoinServeFixture pins the analyzer's serve-package scope: the live
// server's two-goroutine lifecycle (wg field Add in the constructor, Wait in
// Close) must pass the pool-structured model with no suppression, and a
// detached launch in the same package must still fire.
func TestWaitJoinServeFixture(t *testing.T) {
	findings := runAnalyzer(t, "waitjoin", "testdata/src/waitjoin/serve")
	got := formatFindings(t, findings)
	checkGolden(t, "waitjoin-serve", got)
	if active, suppressed := counts(findings); active != 1 || suppressed != 0 {
		t.Errorf("want exactly 1 active and 0 suppressed, got %d/%d:\n%s", active, suppressed, got)
	}
	for _, clean := range []string{"newServer", "waitReply"} {
		if strings.Contains(got, clean) {
			t.Errorf("false positive in %s:\n%s", clean, got)
		}
	}
}

// TestStaleIgnoreFixture runs waitjoin together with staleignore: the
// directive matching a live finding stays quiet, the rotted directive and the
// one naming no registered analyzer are reported, and a stale report can
// itself be suppressed.
func TestStaleIgnoreFixture(t *testing.T) {
	findings := runAnalyzer(t, "waitjoin,staleignore", "testdata/src/staleignore")
	got := formatFindings(t, findings)
	checkGolden(t, "staleignore", got)
	if active, suppressed := counts(findings); active != 2 || suppressed != 2 {
		t.Errorf("want exactly 2 active and 2 suppressed, got %d/%d:\n%s", active, suppressed, got)
	}
	if !strings.Contains(got, "fixture.go:20:") {
		t.Errorf("missing the stale-directive report in joined:\n%s", got)
	}
	if !strings.Contains(got, "glignlint/atomicmx names no registered analyzer") {
		t.Errorf("missing the unregistered-analyzer report in typo:\n%s", got)
	}
	if strings.Contains(got, "fixture.go:13:") {
		t.Errorf("false positive on the used directive in detach:\n%s", got)
	}
}

// TestStaleIgnoreSubset pins the subset semantics: a directive naming only
// hotalloc is skipped when hotalloc is deselected (a subset run cannot judge
// it) and reported stale only by a run that selects hotalloc, while the
// directive naming no registered analyzer is reported by both runs.
func TestStaleIgnoreSubset(t *testing.T) {
	for _, tc := range []struct {
		analyzers string
		hotalloc  int // stale reports naming the hotalloc directive
	}{
		{"waitjoin,staleignore", 0},
		{"hotalloc,staleignore", 1},
	} {
		findings := runAnalyzer(t, tc.analyzers, "testdata/src/staleignore")
		hotalloc, unregistered := 0, 0
		for _, f := range findings {
			if strings.Contains(f.Message, "glignlint/hotalloc") {
				hotalloc++
			}
			if strings.Contains(f.Message, "names no registered analyzer") {
				unregistered++
			}
		}
		if hotalloc != tc.hotalloc || unregistered != 1 {
			t.Errorf("%s: want %d hotalloc and 1 unregistered report, got %d/%d:\n%s",
				tc.analyzers, tc.hotalloc, hotalloc, unregistered, formatFindings(t, findings))
		}
	}
}

func TestDocLintFixture(t *testing.T) {
	findings := runAnalyzer(t, "doclint", "testdata/src/doclint/...")
	got := formatFindings(t, findings)
	checkGolden(t, "doclint", got)
	if active, suppressed := counts(findings); active != 1 || suppressed != 1 {
		t.Errorf("want exactly 1 active and 1 suppressed, got %d/%d:\n%s", active, suppressed, got)
	}
	if strings.Contains(got, "doclint/documented/") {
		t.Errorf("false positive on the documented package:\n%s", got)
	}
}

// TestCLI exercises the command wrapper: exit codes, -json output shape, and
// the real repository staying lint-clean.
func TestCLI(t *testing.T) {
	var out, errb bytes.Buffer

	// A fixture with active findings exits 1 and emits schema'd JSON.
	if code := run([]string{"-json", "testdata/src/atomicmix"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	var rep struct {
		Schema   string         `json:"schema"`
		Findings []lint.Finding `json:"findings"`
		Counts   *lint.Baseline `json:"counts"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if rep.Schema != "glign.lint/v1" {
		t.Errorf("schema = %q, want glign.lint/v1", rep.Schema)
	}
	if len(rep.Findings) == 0 {
		t.Error("JSON report has no findings for the atomicmix fixture")
	}

	// A clean fixture exits 0.
	out.Reset()
	errb.Reset()
	if code := run([]string{"testdata/src/doclint/documented"}, &out, &errb); code != 0 {
		t.Fatalf("clean fixture exit = %d, want 0; stderr: %s", code, errb.String())
	}

	// An unknown analyzer is a usage error (exit 2).
	if code := run([]string{"-analyzers", "nosuch", "testdata/src/atomicmix"}, &out, &errb); code != 2 {
		t.Fatalf("unknown analyzer exit = %d, want 2", code)
	}

	// A pattern that loads nothing is a driver error (exit 2), distinct from
	// the findings exit (1) above.
	out.Reset()
	errb.Reset()
	if code := run([]string{"testdata/src/nosuchfixture"}, &out, &errb); code != 2 {
		t.Fatalf("load error exit = %d, want 2; stderr: %s", code, errb.String())
	}
}

// TestHelpAnalyzersSorted pins the catalogue output: exactly the registered
// analyzers, one per line, in sorted order — verify.sh's fixture-coverage
// loop parses this output.
func TestHelpAnalyzersSorted(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-help-analyzers"}, &out, &errb); code != 0 {
		t.Fatalf("-help-analyzers exit = %d, want 0; stderr: %s", code, errb.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"atomicmix", "doclint", "hotalloc", "kernelmono",
		"nilrecv", "parcapture", "staleignore", "waitjoin"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("catalogue lists %v, want %v:\n%s", names, want, out.String())
	}
}
