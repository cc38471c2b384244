package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildCFGFromSrc parses a complete file source, builds the CFG of the first
// function declaration, and returns it with the fileset for line lookups.
func buildCFGFromSrc(t *testing.T, src string) (*CFG, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test_input.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return BuildCFG(fd.Body), fset
		}
	}
	t.Fatal("no function declaration in source")
	return nil, nil
}

// lineOf returns the 1-based line of the first occurrence of substr in src.
func lineOf(t *testing.T, src, substr string) int {
	t.Helper()
	idx := strings.Index(src, substr)
	if idx < 0 {
		t.Fatalf("%q not found in source", substr)
	}
	return 1 + strings.Count(src[:idx], "\n")
}

// blockAt returns the block holding a node that starts on the line where
// substr first occurs (the statement-granular CFG puts each statement's node
// at its source line).
func blockAt(t *testing.T, c *CFG, fset *token.FileSet, src, substr string) *Block {
	t.Helper()
	line := lineOf(t, src, substr)
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if fset.Position(n.Pos()).Line == line {
				return b
			}
		}
	}
	t.Fatalf("no CFG node starts on line %d (%q)", line, substr)
	return nil
}

// canReachAvoiding reports whether `to` is reachable from `from` along edges
// that never enter a block in `avoid`. It distinguishes the target of a
// labeled branch from the fallthrough paths that eventually converge anyway.
func canReachAvoiding(from, to *Block, avoid ...*Block) bool {
	blocked := map[*Block]bool{}
	for _, b := range avoid {
		blocked[b] = true
	}
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] || blocked[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func TestCFGLabeledBreakNestedRange(t *testing.T) {
	src := `package p

func f(grid [][]int) {
	var sink int
outer:
	for _, xs := range grid {
		for _, x := range xs {
			if x == 0 {
				break outer
			}
			sink += x
		}
		sink++
	}
	sink--
}
`
	c, fset := buildCFGFromSrc(t, src)
	cond := blockAt(t, c, fset, src, "x == 0")
	use := blockAt(t, c, fset, src, "sink += x")
	post := blockAt(t, c, fset, src, "sink++")
	outerHead := blockAt(t, c, fset, src, "for _, xs := range grid")
	done := blockAt(t, c, fset, src, "sink--")

	// break outer jumps straight past both loops: the after-outer block is
	// reachable from the break's condition without re-entering the outer head
	// or touching the loop tails. An unlabeled break would only reach it
	// through the outer head again.
	if !canReachAvoiding(cond, done, outerHead, post, use) {
		t.Error("labeled break does not jump directly out of the nested range loops")
	}
	if !c.Reachable()[c.Exit] {
		t.Error("exit unreachable")
	}
}

func TestCFGLabeledContinueNestedRange(t *testing.T) {
	src := `package p

func f(grid [][]int) {
	var sink int
outer:
	for _, xs := range grid {
		for _, x := range xs {
			if x == 0 {
				continue outer
			}
			sink += x
		}
		sink++
	}
	sink--
}
`
	c, fset := buildCFGFromSrc(t, src)
	cond := blockAt(t, c, fset, src, "x == 0")
	use := blockAt(t, c, fset, src, "sink += x")
	post := blockAt(t, c, fset, src, "sink++")
	innerHead := blockAt(t, c, fset, src, "for _, x := range xs")
	outerHead := blockAt(t, c, fset, src, "for _, xs := range grid")

	// continue outer re-enters the OUTER range head directly, skipping both
	// the inner head and the outer loop tail. An unlabeled continue would have
	// to pass through the inner head.
	if !canReachAvoiding(cond, outerHead, innerHead, post, use) {
		t.Error("labeled continue does not target the outer range head")
	}
}

func TestCFGGotoBackward(t *testing.T) {
	src := `package p

func f() {
	i := 0
loop:
	if i < 3 {
		i++
		goto loop
	}
	i--
}
`
	c, fset := buildCFGFromSrc(t, src)
	cond := blockAt(t, c, fset, src, "i < 3")
	inc := blockAt(t, c, fset, src, "i++")
	done := blockAt(t, c, fset, src, "i--")

	if !canReachAvoiding(inc, cond, done) {
		t.Error("backward goto does not loop to the label block")
	}
	if !canReachAvoiding(cond, done) {
		t.Error("falling past the goto loop cannot reach the tail")
	}
	if !c.Reachable()[c.Exit] {
		t.Error("exit unreachable")
	}
}

func TestCFGGotoForward(t *testing.T) {
	src := `package p

func f(skip bool) {
	var sink int
	if skip {
		goto end
	}
	sink++
end:
	sink--
}
`
	c, fset := buildCFGFromSrc(t, src)
	cond := blockAt(t, c, fset, src, "skip {")
	work := blockAt(t, c, fset, src, "sink++")
	done := blockAt(t, c, fset, src, "sink--")

	// The forward goto resolves even though the label appears later: the jump
	// reaches the label block without executing the skipped statement.
	if !canReachAvoiding(cond, done, work) {
		t.Error("forward goto does not skip to the label block")
	}
	if !canReachAvoiding(cond, work) {
		t.Error("fall-through path lost")
	}
}

func TestCFGDeferWithPanic(t *testing.T) {
	src := `package p

func f(bad bool) {
	defer cleanup()
	if bad {
		panic("boom")
	}
	finish()
}

func cleanup() {}
func finish()  {}
`
	c, fset := buildCFGFromSrc(t, src)

	boom := blockAt(t, c, fset, src, `panic("boom")`)
	finish := blockAt(t, c, fset, src, "finish()")

	panicEdge, exitEdge := false, false
	for _, s := range boom.Succs {
		if s == c.Panic {
			panicEdge = true
		}
		if s == c.Exit {
			exitEdge = true
		}
	}
	if !panicEdge {
		t.Error("panic statement block has no edge to the Panic pseudo-block")
	}
	if exitEdge {
		t.Error("panic statement block must not fall through to Exit")
	}

	reach := c.Reachable()
	if !reach[c.Panic] || !reach[c.Exit] {
		t.Errorf("reachability: panic=%v exit=%v, want both", reach[c.Panic], reach[c.Exit])
	}
	if !canReachAvoiding(finish, c.Exit, c.Panic) {
		t.Error("normal path does not reach Exit without panicking")
	}
}

// TestCFGDeferPostludeEarlyReturn pins that deferred calls are NOT spliced
// into the edge structure: an early return's block jumps straight to Exit,
// with no cleanup block on the path.
func TestCFGDeferPostludeEarlyReturn(t *testing.T) {
	src := `package p

func f(cond bool) int {
	defer first()
	defer second()
	if cond {
		return 0
	}
	work()
	return 1
}

func first()  {}
func second() {}
func work()   {}
`
	c, fset := buildCFGFromSrc(t, src)

	early := blockAt(t, c, fset, src, "return 0")
	workBlk := blockAt(t, c, fset, src, "work()")

	// The early return leaves without touching the rest of the body; the
	// defers do not materialize as an intervening cleanup block.
	if !canReachAvoiding(early, c.Exit, workBlk) {
		t.Error("early return does not reach Exit directly")
	}
	if len(early.Succs) != 1 || early.Succs[0] != c.Exit {
		t.Errorf("early-return block successors = %d, want exactly [Exit]", len(early.Succs))
	}
	// The pseudo-blocks carry no statements: postludes have nowhere to hide.
	if len(c.Exit.Nodes) != 0 || len(c.Panic.Nodes) != 0 {
		t.Error("Exit/Panic pseudo-blocks must hold no nodes")
	}
}

// TestCFGDeferPanicEarlyReturnInteraction crosses all three features in one
// body: defers (one conditional), a panic edge, and an early return. Both
// terminations stay reachable and each escape leaves from its own block.
func TestCFGDeferPanicEarlyReturnInteraction(t *testing.T) {
	src := `package p

func f(mode int) {
	defer cleanup()
	if mode == 0 {
		return
	}
	if mode < 0 {
		defer extra()
		panic("negative mode")
	}
	finish()
}

func cleanup() {}
func extra()   {}
func finish()  {}
`
	c, fset := buildCFGFromSrc(t, src)

	early := blockAt(t, c, fset, src, "return")
	boom := blockAt(t, c, fset, src, `panic("negative mode")`)
	finish := blockAt(t, c, fset, src, "finish()")

	if !canReachAvoiding(early, c.Exit, boom, finish) {
		t.Error("early return does not reach Exit without the panic or tail paths")
	}
	if canReachAvoiding(early, c.Panic) {
		t.Error("early return must not reach the Panic pseudo-block")
	}
	if !canReachAvoiding(boom, c.Panic) {
		t.Error("panic statement does not reach the Panic pseudo-block")
	}
	if canReachAvoiding(boom, c.Exit) {
		t.Error("panic statement must not fall through to Exit")
	}
	if !canReachAvoiding(finish, c.Exit) {
		t.Error("tail does not reach Exit")
	}
}
