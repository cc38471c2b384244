package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// valuesApproved are the methods of queries.Values (plus its constructor)
// allowed to touch the raw bit-pattern array directly. Everything else must
// relax through the CAS helpers (Improve / ImproveMin / ImproveMax and the
// row forms of the latter two) or the atomic accessors, so the "write if
// better" protocol — the only thing that makes concurrent lane relaxation
// sound (paper Theorem 3.2 requires monotone updates) — cannot be bypassed.
var valuesApproved = map[string]bool{
	"NewValues": true,
	"Repeat":    true, // fills an array nothing else can see yet
	"Resized":   true, // reslices or replaces the array; reads and writes no cell
	"Len":       true,
	"Cap":       true,
	"Get":       true,
	"Set":       true,
	"Fill":      true,
	"LoadRow":   true,
	"Improve":   true, "ImproveMin": true, "ImproveMax": true,
	"ImproveMinRow": true, "ImproveMaxRow": true,
	"Bytes": true,
}

// valuesMutators are the Values methods that change cells; kernel methods
// must stay pure and may not call them.
var valuesMutators = map[string]bool{
	"Set": true, "Fill": true,
	"Improve": true, "ImproveMin": true, "ImproveMax": true,
	"ImproveMinRow": true, "ImproveMaxRow": true,
}

// KernelMono enforces the three kernel invariants of the queries package:
// (1) the Values.bits array is only touched inside the approved accessor/CAS
// helpers, so no code path can install a value without the monotone
// "write if better" protocol; (2) kernel implementations — the monotone
// methods (Relax, Better, Identity, SourceValue, Name) and the
// iterate-to-convergence methods (InitialValue, Step, Residual, Epsilon,
// MaxRounds) — are pure: no writes to non-local state (even through local
// pointer aliases), no sync/atomic calls, no Values mutations, and no calls
// to module helpers the interprocedural purity summary marks impure —
// because engines invoke them from every worker on every edge (or every
// vertex per Jacobi round) with no synchronization of their own; (3) every
// named type implementing Kernel declares its evaluation paradigm: it is
// either resolvable from the Monotone() registry or implements
// ConvergenceKernel, and no ConvergenceKernel hides in the monotone
// registry — engines dispatch on this classification, so an unclassified
// kernel has no sound evaluation path.
func KernelMono() *Analyzer {
	return &Analyzer{
		Name: "kernelmono",
		Doc: "checks queries kernels relax only through the approved CAS " +
			"helpers, stay pure, and declare their evaluation paradigm",
		Run: runKernelMono,
	}
}

func runKernelMono(p *Pass) {
	if p.Pkg.Name != "queries" {
		return
	}
	checkBitsConfinement(p)
	checkKernelPurity(p)
	checkParadigmClassification(p)
}

// checkBitsConfinement flags any use of the Values.bits field outside the
// approved helper set.
func checkBitsConfinement(p *Pass) {
	bitsVar := lookupField(p.Pkg.Types, "Values", "bits")
	if bitsVar == nil {
		return
	}
	for _, fd := range funcDecls(p.Pkg) {
		if fd.Body == nil || valuesApproved[fd.Name.Name] {
			continue
		}
		reported := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || reported {
				return !reported
			}
			if objectOf(p.Pkg.Info, id) == bitsVar {
				reported = true
				p.Reportf(id.Pos(),
					"%s touches Values.bits directly; relaxation must go through the "+
						"approved CAS helpers (Improve/ImproveMin/ImproveMax) or atomic "+
						"accessors (Get/Set)",
					funcDisplayName(fd))
			}
			return true
		})
	}
}

// kernelMethodNames are the Kernel interface methods whose implementations
// must be pure.
var kernelMethodNames = map[string]bool{
	"Name": true, "Identity": true, "SourceValue": true, "Relax": true, "Better": true,
}

// convKernelMethodNames are the ConvergenceKernel methods whose
// implementations must be pure: the Jacobi evaluators call Step on every
// vertex of every round from every worker, under the same no-synchronization
// contract as Relax.
var convKernelMethodNames = map[string]bool{
	"InitialValue": true, "Step": true, "Residual": true, "Epsilon": true, "MaxRounds": true,
}

// ifaceNamed looks a package-scope interface up by name (nil when absent or
// not an interface).
func ifaceNamed(pkg *types.Package, name string) *types.Interface {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// implementsEither reports whether t or *t implements iface.
func implementsEither(t types.Type, iface *types.Interface) bool {
	return iface != nil && (types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface))
}

// checkKernelPurity flags impure statements inside Kernel and
// ConvergenceKernel implementations.
func checkKernelPurity(p *Pass) {
	iface := ifaceNamed(p.Pkg.Types, "Kernel")
	convIface := ifaceNamed(p.Pkg.Types, "ConvergenceKernel")
	if iface == nil {
		return
	}
	info := p.Pkg.Info
	impure := p.Prog.Impurity()
	for _, fd := range funcDecls(p.Pkg) {
		name := fd.Name.Name
		if fd.Recv == nil || fd.Body == nil || !(kernelMethodNames[name] || convKernelMethodNames[name]) {
			continue
		}
		rt := info.Types[fd.Recv.List[0].Type].Type
		if rt == nil {
			continue
		}
		// The two method-name sets are disjoint, so exactly one gate applies.
		if kernelMethodNames[name] && !implementsEither(rt, iface) {
			continue
		}
		if convKernelMethodNames[name] && !implementsEither(rt, convIface) {
			continue
		}
		declName := funcDisplayName(fd)
		aliases := pointerAliases(info, fd)
		flagWrite := func(target ast.Expr) {
			// The classifier traces local pointer aliases, so `p := &k.state;
			// *p = v` is flagged while `p := &scratch; *p = v` stays exempt.
			if r := writeImpurity(info, fd, aliases, target); r != "" {
				p.Reportf(target.Pos(),
					"kernel method %s %s; kernels must be pure — "+
						"they run on every worker for every edge without synchronization",
					declName, r)
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && info.Defs[id] != nil {
						continue // new local binding
					}
					flagWrite(lhs)
				}
			case *ast.IncDecStmt:
				flagWrite(x.X)
			case *ast.CallExpr:
				if _, ok := isPkgCall(info, x, "sync/atomic"); ok {
					p.Reportf(x.Pos(),
						"kernel method %s calls sync/atomic; kernels must be pure value "+
							"functions — the engine owns all synchronization",
						declName)
					return true
				}
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
					if s, ok := info.Selections[sel]; ok && valuesMutators[sel.Sel.Name] {
						if named := namedOf(s.Recv()); named != nil && named.Obj().Name() == "Values" {
							p.Reportf(x.Pos(),
								"kernel method %s mutates a Values array (%s); kernels "+
									"propose values, engines install them",
								declName, sel.Sel.Name)
							return true
						}
					}
				}
				// Helper calls: the module-wide purity summary carries the
				// side effect back to this call site even when the helper
				// lives in another package.
				if callee, _ := calleeOf(info, x); callee != nil {
					if r, bad := impure[callee]; bad && p.Prog.Graph.DeclOf[callee] != nil {
						p.Reportf(x.Pos(),
							"kernel method %s calls %s, which %s; kernels must be pure — "+
								"move the side effect into the engine",
							declName, callee.Name(), r)
					}
				}
			}
			return true
		})
	}
}

// checkParadigmClassification enforces the kernel registry contract stated
// on queries.Monotone(): every named type implementing Kernel either
// resolves from Monotone()'s return list or implements ConvergenceKernel
// (and never both roles at once). The check runs only when the package has
// the full registry shape — a Kernel interface, a ConvergenceKernel
// interface, and a Monotone function — so partial mirrors stay silent.
func checkParadigmClassification(p *Pass) {
	iface := ifaceNamed(p.Pkg.Types, "Kernel")
	convIface := ifaceNamed(p.Pkg.Types, "ConvergenceKernel")
	mono := topLevelFunc(p.Pkg, "Monotone")
	if iface == nil || convIface == nil || mono == nil || mono.Body == nil {
		return
	}
	info := p.Pkg.Info

	// Resolve the concrete named types reachable from Monotone()'s return
	// expressions: identifiers through their package-level var initializers,
	// constructor calls through the callee's return statements, composite
	// literals directly. Unresolvable elements (interface-typed with no
	// visible initializer) are skipped, never guessed.
	approved := map[*types.Named]bool{}
	var resolve func(e ast.Expr, seen map[*types.Func]bool) *types.Named
	resolve = func(e ast.Expr, seen map[*types.Func]bool) *types.Named {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if init := varInitExpr(p.Pkg, x.Name); init != nil {
				return resolve(init, seen)
			}
		case *ast.UnaryExpr:
			return resolve(x.X, seen)
		case *ast.CallExpr:
			callee, _ := calleeOf(info, x)
			fd := p.Prog.Graph.DeclOf[callee]
			if callee == nil || fd == nil || fd.Body == nil || seen[callee] {
				return nil
			}
			seen[callee] = true
			var named *types.Named
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok || named != nil {
					return named == nil
				}
				for _, r := range ret.Results {
					if nt := resolve(r, seen); nt != nil {
						named = nt
					}
				}
				return true
			})
			return named
		default:
			if tv, ok := info.Types[e]; ok && tv.Type != nil {
				return namedOf(tv.Type)
			}
		}
		return nil
	}
	ast.Inspect(mono.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, elt := range lit.Elts {
			named := resolve(elt, map[*types.Func]bool{})
			if named == nil {
				continue
			}
			approved[named] = true
			if implementsEither(named, convIface) {
				p.Reportf(elt.Pos(),
					"Monotone() lists %s, which implements ConvergenceKernel; "+
						"iterate-to-convergence kernels belong in Convergent() — the two "+
						"paradigms have disjoint evaluation paths",
					named.Obj().Name())
			}
		}
		return true
	})

	// Every remaining concrete Kernel type must carry one paradigm.
	scope := p.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		if !implementsEither(named, iface) {
			continue
		}
		if approved[named] || implementsEither(named, convIface) {
			continue
		}
		p.Reportf(tn.Pos(),
			"kernel type %s implements Kernel but neither resolves from the "+
				"Monotone() registry nor implements ConvergenceKernel; an "+
				"unclassified kernel has no evaluation paradigm and no engine may "+
				"run it",
			name)
	}
}

// topLevelFunc finds the package-level function decl with the given name.
func topLevelFunc(pkg *Package, name string) *ast.FuncDecl {
	for _, fd := range funcDecls(pkg) {
		if fd.Recv == nil && fd.Name.Name == name {
			return fd
		}
	}
	return nil
}

// varInitExpr finds the initializer expression of the package-level var with
// the given name (nil when absent or declared without a value).
func varInitExpr(pkg *Package, name string) ast.Expr {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					if id.Name == name && i < len(vs.Values) {
						return vs.Values[i]
					}
				}
			}
		}
	}
	return nil
}

// lookupField finds the named field of a named struct type in pkg.
func lookupField(pkg *types.Package, typeName, fieldName string) *types.Var {
	if pkg == nil {
		return nil
	}
	obj := pkg.Scope().Lookup(typeName)
	if obj == nil {
		return nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == fieldName {
			return st.Field(i)
		}
	}
	return nil
}

// namedOf unwraps pointers to reach a named type.
func namedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}
