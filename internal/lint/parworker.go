package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// ParWorker is one function body the internal/par runtime executes on its
// workers — concurrently, once per chunk. The obvious case is a closure
// literal handed to par.For; the traversal driver's shape is less direct (a
// closure bound to a variable before the iteration loop, which calls a
// function value read from a struct field, which engines fill with method
// values), so workers are found by a small flow-insensitive analysis rather
// than by syntax:
//
//   - every function-valued argument of a par call is a worker;
//   - a function-typed variable or struct field that a worker calls, or that
//     is itself handed to par, is a relay;
//   - every function value stored into a relay — by assignment, definition or
//     keyed composite literal, anywhere in the module — is a worker too.
//
// Values passed as ordinary call arguments are not followed, so a closure
// that reaches a worker only through a parameter stays invisible.
type ParWorker struct {
	Pkg *Package
	// Node is the *ast.FuncLit or *ast.FuncDecl; names declared outside its
	// extent are shared between chunks.
	Node ast.Node
	Body *ast.BlockStmt
	// Recv is the receiver of a method worker: declared inside Node, yet
	// shared by every chunk.
	Recv types.Object
}

// ParWorkers returns the workers declared in pkg, in source order.
func (pr *Program) ParWorkers(pkg *Package) []*ParWorker {
	if pr.parWorkersMemo == nil {
		pr.parWorkersMemo = collectParWorkers(pr)
	}
	return pr.parWorkersMemo[pkg]
}

func collectParWorkers(pr *Program) map[*Package][]*ParWorker {
	out := map[*Package][]*ParWorker{}
	seen := map[ast.Node]bool{}
	relays := map[*types.Var]bool{}
	var fresh []*ParWorker // workers whose bodies have not been scanned for relay calls
	changed := false

	addWorker := func(pkg *Package, node ast.Node, body *ast.BlockStmt, recv types.Object) {
		if body == nil || seen[node] {
			return
		}
		seen[node] = true
		w := &ParWorker{Pkg: pkg, Node: node, Body: body, Recv: recv}
		out[pkg] = append(out[pkg], w)
		fresh = append(fresh, w)
	}
	addRelay := func(v *types.Var) {
		if _, ok := v.Type().Underlying().(*types.Signature); ok && !relays[v] {
			relays[v] = true
			changed = true
		}
	}
	// flow records that the function value e (an expression of pkg) reaches
	// the runtime.
	flow := func(pkg *Package, e ast.Expr) {
		e = ast.Unparen(e)
		if lit, ok := e.(*ast.FuncLit); ok {
			addWorker(pkg, lit, lit.Body, nil)
			return
		}
		if fn := funcValueOf(pkg.Info, e); fn != nil {
			if fd := pr.Graph.DeclOf[fn]; fd != nil {
				dpkg := pr.Graph.PkgOf[fn]
				var recv types.Object
				if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
					recv = dpkg.Info.Defs[fd.Recv.List[0].Names[0]]
				}
				addWorker(dpkg, fd, fd.Body, recv)
			}
			return
		}
		if v := rootVar(pkg.Info, e); v != nil {
			addRelay(v)
		}
	}

	for _, pkg := range pr.All {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isParCall(pkg.Info, call) {
					for _, arg := range call.Args {
						if t := pkg.Info.TypeOf(arg); t != nil {
							if _, ok := t.Underlying().(*types.Signature); ok {
								flow(pkg, arg)
							}
						}
					}
				}
				return true
			})
		}
	}
	for changed = true; changed || len(fresh) > 0; {
		changed = false
		// Function values a worker calls through a variable or field.
		for _, w := range fresh {
			ast.Inspect(w.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if v := rootVar(w.Pkg.Info, call.Fun); v != nil {
						addRelay(v)
					}
				}
				return true
			})
		}
		fresh = nil
		// Function values stored into a relay.
		for _, pkg := range pr.All {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.AssignStmt:
						if len(x.Lhs) == len(x.Rhs) {
							for i, lhs := range x.Lhs {
								if v := rootVar(pkg.Info, lhs); v != nil && relays[v] {
									flow(pkg, x.Rhs[i])
								}
							}
						}
					case *ast.ValueSpec:
						if len(x.Names) == len(x.Values) {
							for i, name := range x.Names {
								if v, ok := pkg.Info.Defs[name].(*types.Var); ok && relays[v] {
									flow(pkg, x.Values[i])
								}
							}
						}
					case *ast.KeyValueExpr:
						if key, ok := x.Key.(*ast.Ident); ok {
							if v, ok := pkg.Info.Uses[key].(*types.Var); ok && v.IsField() && relays[v] {
								flow(pkg, x.Value)
							}
						}
					}
					return true
				})
			}
		}
	}
	for _, ws := range out {
		sort.Slice(ws, func(i, j int) bool { return ws[i].Node.Pos() < ws[j].Node.Pos() })
	}
	return out
}

// funcValueOf resolves an expression used as a function value — a function
// name, a package-qualified one, or a method value — to the function.
func funcValueOf(info *types.Info, e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}
