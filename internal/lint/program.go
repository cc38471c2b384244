package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// Program is the module-wide view handed to analyzers through Pass.Prog:
// every package the loader has in memory and an index of the functions
// declared in them. Module-wide analyses (the par-worker model) hang their
// cached results off this struct so they compute once per run.
type Program struct {
	// All lists every module-internal package with parsed source available,
	// in import-path order: the packages named by the run's patterns plus
	// their transitive module-internal imports, which load with full ASTs.
	// Module-wide facts are collected over All, so a wrapper in a
	// dependency still counts.
	All []*Package
	// DeclOf maps every function and method declared in All to its
	// declaration, and PkgOf to the package holding it, so a function value
	// resolves to the body it runs.
	DeclOf map[*types.Func]*ast.FuncDecl
	PkgOf  map[*types.Func]*Package

	parWorkersMemo map[*Package][]*ParWorker
}

// newProgram assembles the Program for one Run invocation.
func newProgram(l *loader) *Program {
	pr := &Program{DeclOf: map[*types.Func]*ast.FuncDecl{}, PkgOf: map[*types.Func]*Package{}}
	for _, pkg := range l.pkgs {
		if pkg != nil {
			pr.All = append(pr.All, pkg)
		}
	}
	sort.Slice(pr.All, func(i, j int) bool { return pr.All[i].ImportPath < pr.All[j].ImportPath })
	for _, pkg := range pr.All {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						pr.DeclOf[fn], pr.PkgOf[fn] = fd, pkg
					}
				}
			}
		}
	}
	return pr
}
