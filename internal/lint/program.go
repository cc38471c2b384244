package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// Program is the module-wide view handed to analyzers through Pass.Prog:
// every package the loader has in memory (the analyzed set plus their
// module-internal imports, which load with full ASTs), the static call
// graph over all of them, and memoized per-function CFGs. Interprocedural
// analyses (atomicmix wrapper propagation, kernelmono purity summaries) hang
// their cached summaries off this struct so they compute once per run.
type Program struct {
	// Analyzed lists the packages named by the run's patterns — the only
	// ones findings are reported for.
	Analyzed []*Package
	// All lists every module-internal package with parsed source available,
	// in import-path order: Analyzed plus transitively imported packages.
	// Interprocedural facts are collected over All, so a wrapper in a
	// dependency still counts.
	All []*Package
	// Graph is the static call graph over All.
	Graph *CallGraph

	cfgs map[*ast.BlockStmt]*CFG

	atomicFactsMemo *atomicFacts
	impurityMemo    map[*types.Func]string
	freshMemo       map[*ast.FuncDecl]*freshAnalysis
	quiescedMemo    map[*types.Func]bool
	parWorkersMemo  map[*Package][]*ParWorker
}

// newProgram assembles the Program for one Run invocation.
func newProgram(l *loader, analyzed []*Package) *Program {
	var all []*Package
	for _, pkg := range l.pkgs {
		if pkg != nil {
			all = append(all, pkg)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ImportPath < all[j].ImportPath })
	return &Program{
		Analyzed: analyzed,
		All:      all,
		Graph:    buildCallGraph(all),
		cfgs:     map[*ast.BlockStmt]*CFG{},
	}
}

// CFG returns the memoized control-flow graph of body.
func (pr *Program) CFG(body *ast.BlockStmt) *CFG {
	if c, ok := pr.cfgs[body]; ok {
		return c
	}
	c := BuildCFG(body)
	pr.cfgs[body] = c
	return c
}

// funcOf resolves the *types.Func of a declaration in pkg.
func funcOf(pkg *Package, fd *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	return fn
}
