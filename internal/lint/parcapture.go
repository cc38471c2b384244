package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ParCapture flags internal/par workers (see ParWorker: the closures handed
// to the runtime and every function reached from one through a function-typed
// variable or field) that write variables shared between chunks. par.For runs
// its body concurrently on every worker, so a plain `captured++` (or a field
// store through a captured pointer or a method worker's receiver) is a data
// race; the repository convention is to accumulate into worker-local
// variables and publish with sync/atomic, or to write only disjoint slice
// elements (indexed stores are therefore exempt). Assigning an enclosing loop
// variable from inside the closure is flagged the same way.
func ParCapture() *Analyzer {
	return &Analyzer{
		Name: "parcapture",
		Doc: "flags closures passed to internal/par helpers that write " +
			"shared captured variables",
		Run: runParCapture,
	}
}

func runParCapture(p *Pass) {
	for _, w := range p.Prog.ParWorkers(p.Pkg) {
		checkParWorker(p, w)
	}
}

// isParCall reports whether call invokes anything defined by the
// internal/par package: package-qualified helpers (par.For, par.ForEach,
// par.ForReduce), and methods on its types (pool.For for a *par.Pool) — the
// persistent pool made the runtime's entry points methods, and the closure
// check must follow them.
func isParCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	// Explicit generic instantiations (par.ForReduce[int64]) wrap the
	// callee; peel to the underlying selector.
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(x.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(x.X)
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Package-qualified call: par.For, par.ForReduce, ...
	if pkg := pkgNameOf(info, sel.X); pkg != nil {
		return importPathEndsWith(pkg.Path(), "internal/par")
	}
	// Method call on an internal/par type: pool.For, p.drain, ...
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil {
			return importPathEndsWith(fn.Pkg().Path(), "internal/par")
		}
	}
	return false
}

// checkParWorker walks one worker body and reports writes whose target is
// declared outside the worker (or is its receiver).
func checkParWorker(p *Pass, w *ParWorker) {
	info := p.Pkg.Info
	captured := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Name() == "_" {
			return false
		}
		return obj == w.Recv || obj.Pos() < w.Node.Pos() || obj.Pos() > w.Node.End()
	}
	reportWrite := func(target ast.Expr, what string) {
		switch t := ast.Unparen(target).(type) {
		case *ast.Ident:
			if obj := objectOf(info, t); captured(obj) {
				p.Reportf(t.Pos(),
					"internal/par worker writes captured variable %q (%s); "+
						"accumulate locally and publish with sync/atomic",
					t.Name, what)
			}
		case *ast.SelectorExpr:
			// A field store through a captured base races across workers.
			if obj := baseIdentObj(info, t.X); captured(obj) {
				if root := rootVar(info, t); root != nil {
					p.Reportf(t.Pos(),
						"internal/par worker writes field %q of captured %q (%s); "+
							"use sync/atomic or a per-worker copy",
						root.Name(), obj.Name(), what)
				}
			}
		case *ast.StarExpr:
			if obj := baseIdentObj(info, t.X); captured(obj) {
				p.Reportf(t.Pos(),
					"internal/par worker writes through captured pointer %q (%s)",
					obj.Name(), what)
			}
			// IndexExpr stores are exempt: writing disjoint elements of a
			// shared slice is the runtime's intended partitioning pattern.
		}
	}
	ast.Inspect(w.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				reportWrite(lhs, "assignment")
			}
		case *ast.IncDecStmt:
			reportWrite(x.X, "increment/decrement")
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				if x.Key != nil {
					reportWrite(x.Key, "range assignment")
				}
				if x.Value != nil {
					reportWrite(x.Value, "range assignment")
				}
			}
		}
		return true
	})
}
