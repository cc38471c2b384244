package lint

import (
	"go/ast"
	"go/types"
)

// CallGraph is the module-wide static call graph over every loaded package.
// Only direct calls are resolved (named functions, methods called through a
// concrete receiver, generic instantiations); calls through interface values
// or function-typed variables have no edge.
type CallGraph struct {
	// Callees lists, per function, the functions its body calls (function
	// literals nested in it included), in source order.
	Callees map[*types.Func][]*types.Func
	// DeclOf maps a function object to its declaration; PkgOf to the package
	// holding that declaration.
	DeclOf map[*types.Func]*ast.FuncDecl
	PkgOf  map[*types.Func]*Package
}

// buildCallGraph walks every function declaration of pkgs (which must be in
// deterministic order) and records resolved call edges.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Callees: map[*types.Func][]*types.Func{},
		DeclOf:  map[*types.Func]*ast.FuncDecl{},
		PkgOf:   map[*types.Func]*Package{},
	}
	for _, pkg := range pkgs {
		for _, fd := range funcDecls(pkg) {
			caller, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if caller == nil {
				continue
			}
			g.DeclOf[caller], g.PkgOf[caller] = fd, pkg
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := calleeOf(pkg.Info, call); callee != nil {
						g.Callees[caller] = append(g.Callees[caller], callee)
					}
				}
				return true
			})
		}
	}
	return g
}

// calleeOf resolves the static callee of a call, unwrapping parens and
// generic instantiation syntax, or returns nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := objectOf(info, id).(*types.Func)
	return fn
}
