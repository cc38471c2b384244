package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Impurity summaries: a module-wide classification of every declared function
// as pure (absent from the map) or impure, with a human-readable reason. The
// base facts are syntactic — writes that leave the function's own frame,
// sync/atomic calls, channel sends, goroutine launches — and the closure is
// taken over the static call graph, so a kernel method that delegates its
// side effect to a helper two packages away is still caught at the call site.
//
// The write classifier traces one level of pointer aliasing: `p := &local;
// *p = v` stays pure, while `p := &recv.field; *p = v` (or a deref of any
// pointer whose target cannot be pinned to function-local storage) is impure.
// This closes the historic kernelmono gap where any write through a locally
// declared pointer was exempt regardless of what it pointed at.

// Impurity returns the memoized impure-function summary over Program.All.
// Keys are declared module functions; values are reasons phrased to follow
// "<fn> " ("writes non-local state (x)", "calls Set, which ...").
func (pr *Program) Impurity() map[*types.Func]string {
	if pr.impurityMemo != nil {
		return pr.impurityMemo
	}
	imp := map[*types.Func]string{}
	pr.impurityMemo = imp

	// Direct facts, in deterministic package/file/decl order.
	type entry struct {
		pkg *Package
		fd  *ast.FuncDecl
		fn  *types.Func
	}
	var decls []entry
	for _, pkg := range pr.All {
		for _, fd := range funcDecls(pkg) {
			fn := funcOf(pkg, fd)
			if fn == nil || fd.Body == nil {
				continue
			}
			decls = append(decls, entry{pkg, fd, fn})
			if r := directImpurity(pkg, fd); r != "" {
				imp[fn] = r
			}
		}
	}

	// Transitive closure over the call graph. The scan order is fixed and
	// Callees preserves source order, so the reason each function ends up
	// with (hence every report quoting it) is deterministic.
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if _, done := imp[d.fn]; done {
				continue
			}
			for _, callee := range pr.Graph.Callees[d.fn] {
				if r, bad := imp[callee]; bad {
					imp[d.fn] = "calls " + callee.Name() + ", which " + r
					changed = true
					break
				}
			}
		}
	}
	return imp
}

// directImpurity returns the first (source-order) intraprocedural reason fd
// is impure, or "" when every visible effect stays in fd's own frame.
func directImpurity(pkg *Package, fd *ast.FuncDecl) string {
	info := pkg.Info
	aliases := pointerAliases(info, fd)
	var reason string
	set := func(r string) {
		if reason == "" {
			reason = r
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && info.Defs[id] != nil {
					continue // new local binding
				}
				if r := writeImpurity(info, fd, aliases, lhs); r != "" {
					set(r)
					break
				}
			}
		case *ast.IncDecStmt:
			set(writeImpurity(info, fd, aliases, x.X))
		case *ast.CallExpr:
			if callsAtomic(info, x) {
				set("calls sync/atomic")
			}
		case *ast.SendStmt:
			set("sends on a channel")
		case *ast.GoStmt:
			set("launches a goroutine")
		}
		return true
	})
	return reason
}

// writeImpurity classifies the target of an assignment or inc/dec statement
// inside fd. It returns "" when the write provably lands in fd's own frame
// and a reason (phrased to follow the function name) otherwise.
func writeImpurity(info *types.Info, fd *ast.FuncDecl, aliases map[*types.Var]*types.Var, target ast.Expr) string {
	localTo := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= fd.Pos() && obj.Pos() <= fd.End()
	}

	// Explicit deref: *p = v writes wherever p points, not p itself. The
	// alias map rescues the `p := &local` idiom; everything else is shared
	// until proven otherwise.
	if st, ok := ast.Unparen(target).(*ast.StarExpr); ok {
		if id, ok := ast.Unparen(st.X).(*ast.Ident); ok {
			if pv, ok := objectOf(info, id).(*types.Var); ok {
				if r := aliases[pv]; r != nil && localTo(r) {
					return ""
				}
				return fmt.Sprintf("writes through pointer %s whose target may be shared", pv.Name())
			}
		}
		return "writes through a pointer whose target may be shared"
	}

	root := rootVar(info, target)
	if root == nil {
		// Unresolvable targets (results of calls, map-of-map cells) are
		// beyond this classifier, matching the historic analyzer.
		return ""
	}
	if root.IsField() {
		// A field write is frame-local only when the base is a method-local
		// value, or a local pointer the alias map ties to local storage.
		if base, ok := baseIdentObj(info, target).(*types.Var); ok && localTo(base) {
			if _, isPtr := base.Type().Underlying().(*types.Pointer); !isPtr {
				return ""
			}
			if r := aliases[base]; r != nil && localTo(r) {
				return ""
			}
		}
		return fmt.Sprintf("writes non-local state (%s)", root.Name())
	}
	if !localTo(root) {
		return fmt.Sprintf("writes package-level state (%s)", root.Name())
	}
	return ""
}

// pointerAliases maps each local pointer variable bound as p := &x (or
// q := p) to the variable owning the storage it points at. A variable
// rebound to a different root, or bound to anything unresolvable (a call
// result, a parameter, pointer arithmetic through other derefs), maps to nil
// so callers treat its pointee as unknown. The map is flow-insensitive but
// single-assignment-biased: conflicting rebinds poison the entry rather than
// picking a winner.
func pointerAliases(info *types.Info, root ast.Node) map[*types.Var]*types.Var {
	aliases := map[*types.Var]*types.Var{}
	bind := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := objectOf(info, id).(*types.Var)
		if !ok || v == nil {
			return
		}
		if _, isPtr := v.Type().Underlying().(*types.Pointer); !isPtr {
			return
		}
		var r *types.Var
		switch x := ast.Unparen(rhs).(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				r = aliasRoot(info, x.X)
			}
		case *ast.Ident:
			if src, ok := objectOf(info, x).(*types.Var); ok {
				r = aliases[src]
			}
		}
		if prev, seen := aliases[v]; seen && prev != r {
			r = nil
		}
		aliases[v] = r
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				bind(as.Lhs[i], as.Rhs[i])
			}
		}
		return true
	})
	return aliases
}

// aliasRoot resolves the operand of &e to the variable owning the storage,
// or nil when the storage cannot be pinned to a variable: selectors through
// pointers live behind the pointer, slice and map elements live in a backing
// store allocated elsewhere.
func aliasRoot(info *types.Info, e ast.Expr) *types.Var {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if tv, ok := info.Types[x.X]; ok {
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					return nil
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if tv, ok := info.Types[x.X]; ok {
				if _, isArr := tv.Type.Underlying().(*types.Array); !isArr {
					return nil
				}
			}
			e = x.X
		case *ast.Ident:
			v, _ := objectOf(info, x).(*types.Var)
			return v
		default:
			return nil
		}
	}
}
