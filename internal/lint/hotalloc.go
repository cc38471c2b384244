package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags per-iteration allocations on traversal hot paths. The hot
// regions are (a) internal/par workers (see ParWorker: closures handed to the
// runtime and the chunk bodies it reaches through the traversal driver) —
// they execute once per chunk per iteration on every worker — (b) the bodies
// of loops that drive par calls, i.e. the per-iteration section of an engine's
// traversal loop, and (c) every loop of the functions on the per-batch path
// (hotAllocFuncs), par call or not. Inside a region, make/new, slice & map
// composite literals, &T{} allocations, escaping closure literals and appends
// to slices without a proven capacity reservation all turn into garbage
// pressure multiplied by the iteration count; the fix is almost always
// hoisting the allocation out of the loop or reusing a scratch buffer.
//
// Appends are checked flow-sensitively: a must-reach dataflow over the
// enclosing function's CFG tracks which slices were last bound to a
// capacity-reserving make (3-arg make, or make with zero length and explicit
// capacity), and an append is exempt exactly when its target is reserved on
// every path into the append. Reserving with an iteration-cap hint before
// the loop is therefore enough to quiesce the finding.
func HotAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc: "flags per-iteration allocations (make, composite literals, " +
			"unreserved appends, escaping closures) inside traversal loops " +
			"and internal/par worker closures",
		Run: runHotAlloc,
	}
}

// hotAllocPkgs are the package names whose loops are traversal hot paths.
// serve and telemetry are in scope since PR 7: the serving loop's batch path
// and the per-iteration telemetry hooks run once per batch per query and
// feed the same engines.
var hotAllocPkgs = map[string]bool{
	"core": true, "par": true, "serve": true, "telemetry": true,
}

// hotAllocFuncs are the functions every batch of a warmed owner passes
// through that exist to hand it recycled state (core.Arena, and the
// per-worker scratch of a Jacobi run) — named as funcDisplayName renders
// them. They legitimately allocate once, straight-line, when there is nothing
// to recycle; a loop in them is per lane or per vertex of every batch, so all
// their loops are hot regions, not only those that drive internal/par.
var hotAllocFuncs = map[string]bool{
	"PrepareBatch":              true,
	"(*BatchResult).Release":    true,
	"(*Arena).takeValues":       true,
	"(*Arena).releaseValues":    true,
	"(*Arena).takeMask":         true,
	"(*Arena).releaseMask":      true,
	"(*Arena).takeSlabs":        true,
	"(*Arena).releaseSlabs":     true,
	"(*Arena).takeScratches":    true,
	"(*Arena).releaseScratches": true,
	"(*Arena).geometry":         true,
	"newJacobiScratch":          true,
}

func runHotAlloc(p *Pass) {
	if !hotAllocPkgs[p.Pkg.Name] {
		return
	}
	// The reservation dataflow runs over whichever body encloses the region:
	// the function for loop regions (reservations sit before the loop), the
	// worker itself for worker regions (a closure's statements are not nodes
	// of the enclosing CFG). Scopes are shared across regions with the same
	// flow body, and findings deduplicate by position so nested regions don't
	// double-report.
	scopes := map[*ast.BlockStmt]*hotAllocScope{}
	reported := map[string]bool{}
	var regions []hotRegion
	for _, fd := range funcDecls(p.Pkg) {
		if fd.Body != nil {
			regions = append(regions, loopRegions(p.Pkg.Info, fd)...)
		}
	}
	for _, w := range p.Prog.ParWorkers(p.Pkg) {
		regions = append(regions, hotRegion{w.Body, w.Body, "internal/par worker closure"})
	}
	for _, region := range regions {
		scope, ok := scopes[region.flowBody]
		if !ok {
			scope = newHotAllocScope(p, region.flowBody, reported)
			scopes[region.flowBody] = scope
		}
		scope.check(region.body, region.why)
	}
}

// hotRegion is one stretch of code that executes once per iteration (or per
// worker chunk) of a parallel traversal. flowBody is the function or closure
// body the reservation dataflow must span to see bindings preceding the
// region.
type hotRegion struct {
	body     ast.Node
	flowBody *ast.BlockStmt
	why      string
}

// loopRegions finds the loop bodies of fd that contain a par call — every
// loop body, when fd is on the per-batch path (hotAllocFuncs). Regions
// may nest (with each other and with worker regions); each is checked
// independently and findings are deduplicated by position.
func loopRegions(info *types.Info, fd *ast.FuncDecl) []hotRegion {
	var out []hotRegion
	perBatch := hotAllocFuncs[funcDisplayName(fd)]
	region := func(body *ast.BlockStmt, drivesPar bool) {
		switch {
		case drivesPar:
			out = append(out, hotRegion{body, fd.Body, "iteration loop driving internal/par"})
		case perBatch:
			out = append(out, hotRegion{body, fd.Body, "loop on the per-batch path"})
		}
	}
	containsParCall := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && isParCall(info, call) {
				found = true
			}
			return !found
		})
		return found
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			region(x.Body, containsParCall(x.Body))
		case *ast.RangeStmt:
			region(x.Body, containsParCall(x.Body))
		}
		return true
	})
	return out
}

// hotAllocScope bundles one flow body's state: the reservation dataflow over
// the function or closure enclosing the region (reservations typically
// happen before the loop, so the analysis must span the full CFG, not just
// the region) and the shared dedup set.
type hotAllocScope struct {
	p        *Pass
	info     *types.Info
	flowBody *ast.BlockStmt
	cfg      *CFG
	problem  *reservedProblem
	res      *FlowResult
	reported map[string]bool
}

func newHotAllocScope(p *Pass, flowBody *ast.BlockStmt, reported map[string]bool) *hotAllocScope {
	cfg := p.Prog.CFG(flowBody)
	problem := &reservedProblem{info: p.Pkg.Info}
	return &hotAllocScope{
		p:        p,
		info:     p.Pkg.Info,
		flowBody: flowBody,
		cfg:      cfg,
		problem:  problem,
		res:      ForwardFlow(cfg, problem),
		reported: reported,
	}
}

func (ha *hotAllocScope) report(n ast.Node, format string, args ...interface{}) {
	pos := ha.p.fset.Position(n.Pos())
	key := pos.String()
	if ha.reported[key] {
		return
	}
	ha.reported[key] = true
	ha.p.Reportf(n.Pos(), format, args...)
}

// check walks one hot region and reports allocation sites. Nested function
// literals that are themselves par arguments start their own region, so the
// walk skips them here.
func (ha *hotAllocScope) check(body ast.Node, why string) {
	info := ha.info
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltinCall(info, x, "make"):
				// A zero-length make with explicit capacity is the scratch
				// reservation this analyzer itself prescribes; per-worker
				// scratch cannot be hoisted past the closure boundary
				// without racing, so the idiom is exempt.
				if isScratchMake(info, x) {
					return true
				}
				ha.report(x, "make inside %s allocates every iteration; hoist it out of the loop or reuse a scratch buffer", why)
			case isBuiltinCall(info, x, "new"):
				ha.report(x, "new inside %s allocates every iteration; hoist it out of the loop or reuse a scratch buffer", why)
			case isBuiltinCall(info, x, "append"):
				ha.checkAppend(x, why)
			}
			if isParCall(info, x) {
				// The worker closures of a nested par call are their own
				// regions; don't double-report their bodies under this one.
				for _, arg := range x.Args {
					if _, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						return true
					}
				}
			}
		case *ast.CompositeLit:
			switch info.Types[x].Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				ha.report(x, "%s literal inside %s allocates every iteration; hoist it out of the loop", describeLitType(info, x), why)
			}
			return false // inner literals are part of the same allocation
		case *ast.UnaryExpr:
			// &T{} heap-allocates; plain value literals passed by value do not.
			if x.Op == token.AND {
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					ha.report(x, "&%s{...} inside %s heap-allocates every iteration; hoist it out of the loop or reuse a scratch value", typeNameOf(info, lit), why)
					return false
				}
			}
		case *ast.FuncLit:
			if !ha.isParArg(x) {
				ha.report(x, "closure literal inside %s allocates (and may escape) every iteration; hoist it to a named function or declare it before the loop", why)
			}
			return false // its body is not part of this region
		}
		return true
	})
}

// isParArg reports whether lit is a direct argument of a par call — the one
// closure shape the hot path cannot avoid (it IS the work distribution).
func (ha *hotAllocScope) isParArg(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(ha.flowBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isParCall(ha.info, call) {
			return !found
		}
		for _, arg := range call.Args {
			if ast.Unparen(arg) == lit {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkAppend flags append calls whose target slice is not reserved (bound
// to a capacity-carrying make on every path into the call).
func (ha *hotAllocScope) checkAppend(call *ast.CallExpr, why string) {
	if len(call.Args) == 0 {
		return
	}
	target := rootVar(ha.info, call.Args[0])
	if target == nil {
		ha.report(call, "append inside %s may grow its backing array every iteration; preallocate with a capacity hint", why)
		return
	}
	fact := FactAt(ha.cfg, ha.problem, ha.res, call)
	if fact != nil && fact.(reservedSet)[target] {
		return
	}
	ha.report(call,
		"append to %s inside %s may grow its backing array every iteration; preallocate with a capacity hint (make with explicit cap) before the loop",
		target.Name(), why)
}

// describeLitType renders "slice" / "map" for the finding message.
func describeLitType(info *types.Info, lit *ast.CompositeLit) string {
	if _, ok := info.Types[lit].Type.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}

// typeNameOf names the composite literal's type for the finding message.
func typeNameOf(info *types.Info, lit *ast.CompositeLit) string {
	t := info.Types[lit].Type
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// reservedSet is the dataflow fact of the reservation analysis: the slices
// (variables or fields, keyed by their *types.Var) currently bound to a
// capacity-reserving make.
type reservedSet map[*types.Var]bool

// reservedProblem is a forward must-analysis: a slice is reserved at a point
// only when every path reaching the point bound it to a make with explicit
// capacity (and did not rebind it to anything else — self-appends keep the
// reservation, they are exactly the amortized growth the hint pays for).
type reservedProblem struct {
	info *types.Info
}

func (rp *reservedProblem) Entry() any { return reservedSet{} }

func (rp *reservedProblem) Merge(a, b any) any {
	fa, fb := a.(reservedSet), b.(reservedSet)
	out := reservedSet{}
	for v := range fa {
		if fb[v] {
			out[v] = true
		}
	}
	return out
}

func (rp *reservedProblem) Equal(a, b any) bool {
	fa, fb := a.(reservedSet), b.(reservedSet)
	if len(fa) != len(fb) {
		return false
	}
	for v := range fa {
		if !fb[v] {
			return false
		}
	}
	return true
}

func (rp *reservedProblem) Transfer(n ast.Node, fact any) any {
	in := fact.(reservedSet)
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return in
	}
	out := reservedSet{}
	for v := range in {
		out[v] = true
	}
	for i, lhs := range as.Lhs {
		v := rootVar(rp.info, lhs)
		if v == nil {
			continue
		}
		switch {
		case isReservingMake(rp.info, as.Rhs[i]):
			out[v] = true
		case isSelfAppend(rp.info, lhs, as.Rhs[i]):
			// x = append(x, ...) amortizes against the reservation.
		case isSelfReslice(rp.info, lhs, as.Rhs[i]):
			// x = x[:0] truncates but keeps the reserved capacity.
		default:
			delete(out, v)
		}
	}
	return out
}

// isBuiltinCall reports whether call invokes the named predeclared builtin
// (not a shadowing user declaration).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = objectOf(info, id).(*types.Builtin)
	return ok
}

// isReservingMake reports whether e is a make call that reserves capacity:
// make(T, len, cap), or make(T, n) where the full length is written up front
// (two-arg make counts — the slice is sized, appends to it are the caller's
// own choice to grow past the sizing and still benefit from the base).
func isReservingMake(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !isBuiltinCall(info, call, "make") {
		return false
	}
	return len(call.Args) >= 2
}

// isScratchMake reports whether call is make(S, 0, cap): a pure capacity
// reservation whose zero length means the allocation exists only to be
// appended into.
func isScratchMake(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 3 {
		return false
	}
	tv, ok := info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// isSelfAppend reports whether rhs is append(lhs, ...).
func isSelfAppend(info *types.Info, lhs ast.Expr, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || !isBuiltinCall(info, call, "append") || len(call.Args) == 0 {
		return false
	}
	lv := rootVar(info, lhs)
	return lv != nil && lv == rootVar(info, call.Args[0])
}

// isSelfReslice reports whether rhs is lhs[...] — a reslice of the same
// variable, which retains the backing array and its capacity.
func isSelfReslice(info *types.Info, lhs ast.Expr, rhs ast.Expr) bool {
	sl, ok := ast.Unparen(rhs).(*ast.SliceExpr)
	if !ok {
		return false
	}
	lv := rootVar(info, lhs)
	return lv != nil && lv == rootVar(info, sl.X)
}
