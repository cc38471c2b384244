package lint

import (
	"go/ast"
	"go/token"
)

// CFG is an intraprocedural control-flow graph over one function body. It is
// statement-granular: every top-level statement (and branch condition) of the
// source becomes a node in exactly one basic block, and edges follow Go's
// structured control flow plus the unstructured escapes (labeled
// break/continue, goto, return, panic). Expressions are not decomposed;
// dataflow transfer functions inspect sub-expressions themselves.
//
// Two pseudo-blocks terminate every function: Exit collects normal
// terminations (returns and falling off the end), Panic collects panicking
// paths. A defer statement is a straight-line node where it appears; its
// deferred call is not spliced into the edges to Exit or Panic.
type CFG struct {
	// Entry is the first block executed; Blocks[0].
	Entry *Block
	// Exit is the normal-termination pseudo-block (no nodes, no successors).
	Exit *Block
	// Panic is the abnormal-termination pseudo-block fed by panic() calls.
	Panic *Block
	// Blocks lists every block, Entry first, in creation order.
	Blocks []*Block
}

// Block is one straight-line run of statements with a single entry point.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// Reachable returns the set of blocks reachable from Entry.
func (c *CFG) Reachable() map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(c.Entry)
	return seen
}

// branchTargets is one entry of the break/continue resolution stack: the
// innermost enclosing loop/switch/select, with its optional label. cont is
// nil for switch/select (continue passes through them to the nearest loop).
type branchTargets struct {
	label     string
	brk, cont *Block
}

type cfgBuilder struct {
	c *CFG
	// cur is the block under construction; nil while the builder walks
	// statically dead code (after return/break/goto...).
	cur     *Block
	targets []branchTargets
	// labels maps goto/label names to their blocks, created on demand so
	// forward gotos resolve.
	labels map[string]*Block
	// fallthroughs is the stack of next-case blocks for fallthrough.
	fallthroughs []*Block
}

// BuildCFG constructs the CFG of one function (or function literal) body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	c := &CFG{}
	b := &cfgBuilder{c: c, labels: map[string]*Block{}}
	c.Entry = b.newBlock()
	c.Exit = b.newBlock()
	c.Panic = b.newBlock()
	b.cur = c.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, c.Exit)
	}
	return c
}

func (b *cfgBuilder) newBlock() *Block {
	bl := &Block{Index: len(b.c.Blocks)}
	b.c.Blocks = append(b.c.Blocks, bl)
	return bl
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// moveTo makes `to` the current block, linking it from the old current block
// when that one is still live.
func (b *cfgBuilder) moveTo(to *Block) {
	if b.cur != nil {
		b.edge(b.cur, to)
	}
	b.cur = to
}

// add appends a node to the current block, reviving a fresh (unreachable)
// block when the builder is in dead code so the nodes are still retained.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if lb, ok := b.labels[name]; ok {
		return lb
	}
	lb := b.newBlock()
	b.labels[name] = lb
	return lb
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// findTarget resolves a break (wantBreak) or continue target, optionally
// labeled. Continue skips switch/select frames (cont == nil).
func (b *cfgBuilder) findTarget(label string, wantBreak bool) *Block {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if label != "" && t.label != label {
			continue
		}
		if wantBreak {
			return t.brk
		}
		if t.cont != nil {
			return t.cont
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(x.List)

	case *ast.LabeledStmt:
		// The label block is a join point so gotos (including backward ones)
		// can land here; the labeled statement resolves break/continue
		// through the label passed down.
		lb := b.labelBlock(x.Label.Name)
		b.moveTo(lb)
		b.stmt(x.Stmt, x.Label.Name)

	case *ast.IfStmt:
		if x.Init != nil {
			b.add(x.Init)
		}
		b.add(x.Cond)
		condB := b.cur
		after := b.newBlock()
		thenB := b.newBlock()
		b.edge(condB, thenB)
		b.cur = thenB
		b.stmtList(x.Body.List)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if x.Else != nil {
			elseB := b.newBlock()
			b.edge(condB, elseB)
			b.cur = elseB
			b.stmt(x.Else, "")
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		} else {
			b.edge(condB, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if x.Init != nil {
			b.add(x.Init)
		}
		head := b.newBlock()
		b.moveTo(head)
		if x.Cond != nil {
			b.add(x.Cond)
		}
		body := b.newBlock()
		post := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if x.Cond != nil {
			b.edge(head, after)
		}
		b.targets = append(b.targets, branchTargets{label, after, post})
		b.cur = body
		b.stmtList(x.Body.List)
		b.targets = b.targets[:len(b.targets)-1]
		if b.cur != nil {
			b.edge(b.cur, post)
		}
		b.cur = post
		if x.Post != nil {
			b.add(x.Post)
		}
		b.edge(post, head)
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.moveTo(head)
		// The RangeStmt itself is the head node: it evaluates the range
		// expression and binds key/value each round.
		b.add(x)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after) // the range may be empty
		b.targets = append(b.targets, branchTargets{label, after, head})
		b.cur = body
		b.stmtList(x.Body.List)
		b.targets = b.targets[:len(b.targets)-1]
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.SwitchStmt:
		if x.Init != nil {
			b.add(x.Init)
		}
		if x.Tag != nil {
			b.add(x.Tag)
		}
		b.switchClauses(x.Body.List, label, true)

	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			b.add(x.Init)
		}
		b.add(x.Assign)
		b.switchClauses(x.Body.List, label, false)

	case *ast.SelectStmt:
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		after := b.newBlock()
		b.targets = append(b.targets, branchTargets{label, after, nil})
		for _, cl := range x.Body.List {
			comm := cl.(*ast.CommClause)
			cb := b.newBlock()
			b.edge(head, cb)
			b.cur = cb
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			b.stmtList(comm.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.targets = b.targets[:len(b.targets)-1]
		// A select with no clauses blocks forever: after stays unreachable.
		b.cur = after

	case *ast.BranchStmt:
		name := ""
		if x.Label != nil {
			name = x.Label.Name
		}
		switch x.Tok {
		case token.BREAK:
			if t := b.findTarget(name, true); t != nil && b.cur != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findTarget(name, false); t != nil && b.cur != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case token.GOTO:
			if b.cur != nil {
				b.edge(b.cur, b.labelBlock(name))
			}
			b.cur = nil
		case token.FALLTHROUGH:
			if n := len(b.fallthroughs); n > 0 && b.cur != nil && b.fallthroughs[n-1] != nil {
				b.edge(b.cur, b.fallthroughs[n-1])
			}
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.add(x)
		b.edge(b.cur, b.c.Exit)
		b.cur = nil

	case *ast.ExprStmt:
		b.add(x)
		if isPanicCall(x.X) {
			b.edge(b.cur, b.c.Panic)
			b.cur = nil
		}

	case nil:
		// nothing

	default:
		// Assignments, declarations, go/defer/send/incdec/empty statements
		// are straight-line nodes.
		b.add(s)
	}
}

// switchClauses builds the clause blocks of a (type) switch; withFallthrough
// wires fallthrough edges for expression switches.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, label string, withFallthrough bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	b.targets = append(b.targets, branchTargets{label, after, nil})

	// Pre-create case bodies so fallthrough can target the next clause.
	caseBlocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		caseBlocks[i] = b.newBlock()
		b.edge(head, caseBlocks[i])
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	for i, cl := range clauses {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		next := (*Block)(nil)
		if withFallthrough && i+1 < len(clauses) {
			next = caseBlocks[i+1]
		}
		b.fallthroughs = append(b.fallthroughs, next)
		b.stmtList(cc.Body)
		b.fallthroughs = b.fallthroughs[:len(b.fallthroughs)-1]
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	if !hasDefault {
		b.edge(head, after)
	}
	b.cur = after
}

// isPanicCall reports whether e is a call to the builtin panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
