package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package as the analyzers see it.
// Test files (*_test.go) are excluded: the analyzers guard production
// invariants, and test-only races are the -race stage's job.
type Package struct {
	// Dir is the package directory on disk; ImportPath its import path
	// within the module (testdata fixtures get a module-rooted pseudo-path).
	Dir        string
	ImportPath string
	// Name is the package name from the package clauses.
	Name string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Finding is one analyzer diagnostic. Suppressed findings are retained (for
// counting and the lint baseline) but do not fail the run.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`

	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppress_reason,omitempty"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	if f.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", f.SuppressReason)
	}
	return s
}

// Pass is the per-(package, analyzer) context handed to Analyzer.Run. Prog
// carries the module-wide view (all loaded packages, their declarations and
// the par-worker model); findings are still reported against the single
// package in Pkg.
type Pass struct {
	Pkg  *Package
	Prog *Program

	analyzer string
	findings *[]Finding
	fset     *token.FileSet
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check run over every loaded package.
type Analyzer struct {
	// Name is the identifier used in findings and suppression directives
	// (glignlint/<Name>).
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// encodes (shown by glignlint -help-analyzers and quoted in LINTING.md).
	Doc string
	Run func(*Pass)
}

// All returns the full analyzer registry in stable (alphabetical) order; the
// sort enforces the order even if the literal drifts, because -help-analyzers
// output and the fixture-coverage check in verify.sh both key off it.
func All() []*Analyzer {
	as := []*Analyzer{
		DocLint(),
		ParCapture(),
		StaleIgnore(),
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// StaleIgnore reports //lint:ignore directives that match no finding of the
// run: a suppression whose finding was fixed (or whose analyzer scope moved)
// is dead weight that silently re-authorizes the next real finding on that
// line. The check runs in the driver after every other selected analyzer has
// finished with the package — it needs their full finding set — so the Run
// hook here is a no-op; lint.Run special-cases the name.
//
// A directive is stale when it names at least one analyzer selected for this
// run and none of the named, selected analyzers produced a finding in its
// range. Directives naming only unselected analyzers are skipped (a subset
// run cannot judge them), and directives naming staleignore itself are never
// reported (they exist to suppress this very check). A directive naming an
// analyzer the registry does not have — a typo, or a retired analyzer — can
// never match anything and is reported whatever the selection.
func StaleIgnore() *Analyzer {
	return &Analyzer{
		Name: "staleignore",
		Doc: "reports //lint:ignore directives that no longer match any " +
			"finding of the selected analyzers, or that name no registered " +
			"analyzer (driver-level check)",
		Run: func(*Pass) {},
	}
}

// Select resolves a comma-separated analyzer-name list against the registry.
func Select(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimPrefix(strings.TrimSpace(n), "glignlint/")
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run loads the packages matched by patterns (relative to the enclosing
// module; "dir/..." recurses) and runs every analyzer over each, returning
// findings sorted by file/line/col/analyzer with suppressions applied.
// Finding paths are module-relative (slash-separated), so reports and
// baselines are machine-independent.
//
// All matched packages load before any analyzer runs: the par-worker model
// needs the module-wide Program (every package's AST and declarations)
// assembled first.
func Run(analyzers []*Analyzer, patterns []string) ([]Finding, error) {
	l, err := newLoader()
	if err != nil {
		return nil, err
	}
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var analyzed []*Package
	for _, dir := range dirs {
		pkg, err := l.load(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil { // no non-test Go files
			continue
		}
		analyzed = append(analyzed, pkg)
	}
	prog := newProgram(l)

	runNames := map[string]bool{}
	for _, a := range analyzers {
		runNames[a.Name] = true
	}
	var findings []Finding
	for _, pkg := range analyzed {
		sup := collectSuppressions(pkg)
		for _, a := range analyzers {
			var raw []Finding
			a.Run(&Pass{Pkg: pkg, Prog: prog, analyzer: a.Name, findings: &raw, fset: pkg.Fset})
			for i := range raw {
				if reason, ok := sup.match(a.Name, raw[i].File, raw[i].Line); ok {
					raw[i].Suppressed = true
					raw[i].SuppressReason = reason
				}
			}
			findings = append(findings, raw...)
		}
		if runNames["staleignore"] {
			findings = append(findings, staleFindings(pkg, sup, runNames)...)
		}
	}
	for i := range findings {
		findings[i].File = l.relPath(findings[i].File)
	}
	SortFindings(findings)
	return findings, nil
}

// SortFindings orders findings by file, line, column, then analyzer — the
// canonical order every emitter (text, JSON report, baseline) relies on, so
// output never depends on analyzer scheduling or map iteration.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// ActiveCount returns the number of unsuppressed findings.
func ActiveCount(findings []Finding) int {
	n := 0
	for _, f := range findings {
		if !f.Suppressed {
			n++
		}
	}
	return n
}

// suppression is one parsed //lint:ignore directive: it silences the named
// analyzers on the lines [fromLine, toLine] of file. used records whether the
// directive matched at least one finding this run (the staleignore input).
type suppression struct {
	analyzers []string
	file      string
	fromLine  int
	toLine    int
	reason    string
	line      int // the directive's own source line, for stale reports
	col       int
	used      bool
}

type suppressionSet []*suppression

// directiveRE matches "//lint:ignore glignlint/name[,glignlint/name...] reason".
var directiveRE = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s+(.+?)\s*$`)

// collectSuppressions parses every //lint:ignore directive of the package.
// A directive covers its own line and the next line; a directive inside a
// function's doc comment covers the whole declaration.
func collectSuppressions(pkg *Package) suppressionSet {
	var out suppressionSet
	for _, f := range pkg.Files {
		// Doc-comment directives extend over the whole declaration.
		funcRanges := map[*ast.CommentGroup][2]int{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			funcRanges[fd.Doc] = [2]int{
				pkg.Fset.Position(fd.Pos()).Line,
				pkg.Fset.Position(fd.End()).Line,
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				var names []string
				for _, n := range strings.Split(m[1], ",") {
					names = append(names, strings.TrimPrefix(n, "glignlint/"))
				}
				pos := pkg.Fset.Position(c.Pos())
				s := &suppression{
					analyzers: names,
					file:      pos.Filename,
					fromLine:  pos.Line,
					toLine:    pos.Line + 1,
					reason:    m[2],
					line:      pos.Line,
					col:       pos.Column,
				}
				if r, ok := funcRanges[cg]; ok {
					s.fromLine, s.toLine = r[0], r[1]
				}
				out = append(out, s)
			}
		}
	}
	return out
}

func (ss suppressionSet) match(analyzer, file string, line int) (string, bool) {
	for _, s := range ss {
		if s.file != file || line < s.fromLine || line > s.toLine {
			continue
		}
		for _, a := range s.analyzers {
			if a == analyzer {
				s.used = true
				return s.reason, true
			}
		}
	}
	return "", false
}

// staleFindings implements the staleignore check over one package: every
// directive that names an unregistered analyzer, or names a selected analyzer
// yet matched nothing, is itself a finding at the directive's position. A
// stale finding is suppressible like any other (by a directive naming
// glignlint/staleignore); directives that name staleignore are exempt from
// the matched-nothing check to keep the tower finite.
func staleFindings(pkg *Package, sup suppressionSet, runNames map[string]bool) []Finding {
	registered := map[string]bool{}
	for _, a := range All() {
		registered[a.Name] = true
	}
	var raw []Finding
	for _, s := range sup {
		var unknown []string
		covered, mentionsStale := false, false
		for _, a := range s.analyzers {
			switch {
			case !registered[a]:
				unknown = append(unknown, a)
			case a == "staleignore":
				mentionsStale = true
			case runNames[a]:
				covered = true
			}
		}
		var msg string
		switch {
		case len(unknown) > 0:
			msg = fmt.Sprintf("suppression for glignlint/%s names no registered analyzer; "+
				"correct or delete the directive", strings.Join(unknown, ",glignlint/"))
		case s.used || mentionsStale || !covered:
			continue
		default:
			msg = fmt.Sprintf("suppression for glignlint/%s matches no finding of this run; "+
				"delete the stale directive", strings.Join(s.analyzers, ",glignlint/"))
		}
		raw = append(raw, Finding{Analyzer: "staleignore", File: s.file, Line: s.line, Col: s.col, Message: msg})
	}
	for i := range raw {
		if reason, ok := sup.match("staleignore", raw[i].File, raw[i].Line); ok {
			raw[i].Suppressed = true
			raw[i].SuppressReason = reason
		}
	}
	return raw
}
