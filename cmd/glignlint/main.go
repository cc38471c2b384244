// Command glignlint is the project's static-analysis suite: a stdlib-only
// multi-analyzer driver (go/parser + go/ast + go/types) that machine-checks
// the concurrency and engine invariants the Glign reproduction depends on.
//
// Analyzers (see LINTING.md for the invariant each one encodes):
//
//	atomicmix   — sync/atomic updates mixed with plain loads/stores
//	              (interprocedural: wrapper-aware, whole-slice reads included)
//	doclint     — every package carries a package comment
//	hotalloc    — per-iteration allocations in traversal loops and par closures
//	kernelmono  — relaxation only through the approved CAS helpers; pure kernels
//	              (alias-aware, call-graph purity summaries)
//	nilrecv     — nil-receiver guards on the nil-safe telemetry types
//	parcapture  — par.For closures writing captured variables
//	staleignore — //lint:ignore directives matching no finding of the run or
//	              naming no registered analyzer
//	waitjoin    — goroutines in internal/par, internal/core, internal/serve,
//	              and internal/telemetry join on every exit path
//
// Usage:
//
//	glignlint [flags] [package-pattern ...]
//
// Patterns default to ./... and follow go-tool conventions ("dir",
// "dir/..."). Findings print as file:line:col: analyzer: message; the exit
// status is 1 when any unsuppressed finding remains, 2 on driver errors.
//
// Flags:
//
//	-json                 emit findings and counts as JSON
//	-analyzers a,b        run a subset of analyzers
//	-show-suppressed      also print suppressed findings (text mode)
//	-write-baseline file  write a per-analyzer count snapshot (lint baseline)
//	-help-analyzers       print the analyzer catalogue and exit
//
// Suppress a finding with a justified directive on the offending line, the
// line above it, or in the enclosing function's doc comment:
//
//	//lint:ignore glignlint/<analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/glign/glign/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and delegates to the lint.CLI driver.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("glignlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cli := lint.CLI{Tool: "glignlint", Stdout: stdout, Stderr: stderr}
	fs.BoolVar(&cli.JSON, "json", false, "emit findings as JSON")
	fs.StringVar(&cli.Analyzers, "analyzers", "", "comma-separated analyzer subset (default: all)")
	fs.BoolVar(&cli.ShowSuppressed, "show-suppressed", false, "also print suppressed findings")
	fs.StringVar(&cli.BaselinePath, "write-baseline", "", "write per-analyzer finding counts to this file")
	helpAnalyzers := fs.Bool("help-analyzers", false, "print the analyzer catalogue and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *helpAnalyzers {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	cli.Patterns = fs.Args()
	return cli.Main()
}
