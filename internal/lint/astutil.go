package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// objectOf resolves an identifier to its object via Uses or Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// rootVar peels selectors, indexing, parens and derefs off an lvalue-ish
// expression and returns the innermost *types.Var it addresses: the field
// for a.b.c / a.b[i], the variable for plain identifiers. It returns nil
// for anything else (calls, composite literals, conversions...).
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok {
				if v, ok := sel.Obj().(*types.Var); ok {
					return v
				}
				return nil
			}
			// Package-qualified name: resolve the selected identifier.
			if v, ok := objectOf(info, x.Sel).(*types.Var); ok {
				return v
			}
			return nil
		case *ast.Ident:
			if v, ok := objectOf(info, x).(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// baseIdentObj returns the object of the base identifier of a selector /
// index chain (res for res.Edges, s for s.words[i]), or nil.
func baseIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			return objectOf(info, x)
		default:
			return nil
		}
	}
}

// pkgNameOf returns the imported package if id is a package qualifier
// (the "atomic" of atomic.AddInt64), else nil.
func pkgNameOf(info *types.Info, e ast.Expr) *types.Package {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if pn, ok := objectOf(info, id).(*types.PkgName); ok {
		return pn.Imported()
	}
	return nil
}

// isPkgCall reports whether call invokes a function of the package with
// import path pkgPath, returning the function's name.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	p := pkgNameOf(info, sel.X)
	if p == nil || p.Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// importPathEndsWith reports whether path is pkg or ends in "/"+pkg, so
// module-internal packages match regardless of module prefix.
func importPathEndsWith(path, pkg string) bool {
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// funcDecls yields every function declaration of the package with a
// human-readable name ("(*Subset).Add", "pullIteration").
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}

// funcDisplayName renders a FuncDecl name including its receiver type.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star := ""
	if s, ok := t.(*ast.StarExpr); ok {
		star = "*"
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}
