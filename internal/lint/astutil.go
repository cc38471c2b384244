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
// (the "par" of par.For), else nil.
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

// importPathEndsWith reports whether path is pkg or ends in "/"+pkg, so
// module-internal packages match regardless of module prefix.
func importPathEndsWith(path, pkg string) bool {
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}
