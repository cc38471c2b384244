package lint

import (
	"encoding/json"
	"fmt"
	"io"
)

// ReportSchema identifies the JSON document emitted by the -json mode (and
// archived by verify.sh as results/lint-report.json).
const ReportSchema = "glign.lint/v1"

// Report is the machine-readable output document of a lint run.
type Report struct {
	Schema   string    `json:"schema"`
	Findings []Finding `json:"findings"`
	Counts   *Baseline `json:"counts"`
}

// CLI is the command front-end behind cmd/glignlint: analyzer selection, the
// analyzer pass itself, optional baseline writing, and finding rendering,
// with the exit-code policy (0 clean, 1 active findings remain, 2 usage or
// driver error). The command parses its flags and hands the result here.
type CLI struct {
	// Tool prefixes error messages ("glignlint").
	Tool string
	// Analyzers is the comma-separated subset to run; "" means all.
	Analyzers string
	// Patterns are the package patterns to analyze; empty means "./...".
	Patterns []string
	// JSON switches output to the Report document on Stdout.
	JSON bool
	// ShowSuppressed also prints suppressed findings in text mode.
	ShowSuppressed bool
	// BaselinePath, when non-empty, receives a per-analyzer count snapshot.
	BaselinePath string

	Stdout, Stderr io.Writer
}

func (c *CLI) errf(format string, args ...interface{}) {
	fmt.Fprintln(c.Stderr, c.Tool+":", fmt.Sprintf(format, args...))
}

// Main runs the configured lint pass and returns the process exit code.
func (c *CLI) Main() int {
	analyzers, err := Select(c.Analyzers)
	if err != nil {
		c.errf("%v", err)
		return 2
	}
	patterns := c.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := Run(analyzers, patterns)
	if err != nil {
		c.errf("%v", err)
		return 2
	}
	if c.BaselinePath != "" {
		if err := WriteBaseline(c.BaselinePath, MakeBaseline(analyzers, findings)); err != nil {
			c.errf("%v", err)
			return 2
		}
	}
	if c.JSON {
		enc := json.NewEncoder(c.Stdout)
		enc.SetIndent("", "  ")
		rep := Report{
			Schema:   ReportSchema,
			Findings: findings,
			Counts:   MakeBaseline(analyzers, findings),
		}
		if rep.Findings == nil {
			rep.Findings = []Finding{}
		}
		if err := enc.Encode(rep); err != nil {
			c.errf("%v", err)
			return 2
		}
	} else {
		for _, f := range findings {
			if f.Suppressed && !c.ShowSuppressed {
				continue
			}
			fmt.Fprintln(c.Stdout, f)
		}
	}
	if n := ActiveCount(findings); n > 0 {
		if !c.JSON {
			fmt.Fprintf(c.Stderr, "%s: %d finding(s)\n", c.Tool, n)
		}
		return 1
	}
	return 0
}
