package lint

import (
	"go/ast"
)

// budgetpollScope lists the packages whose fixpoint and closure loops
// must stay killable: the engine and the numeric substrates, where PR
// 5's per-procedure budgets do their work.
var budgetpollScope = []string{
	ModulePath + "/internal/analysis",
	ModulePath + "/internal/polyhedra",
	ModulePath + "/internal/zone",
	ModulePath + "/internal/interval",
	ModulePath + "/internal/numkernel",
}

// Budgetpoll enforces PR 5's termination guarantee structurally: an
// unbounded loop (`for { ... }` or `for cond { ... }` — no init, no
// post, no range clause) that itself drives nested iteration is a
// fixpoint/worklist/closure loop, and its body must contain a
// budget.Token safe point (a .Step(...) or .Exhausted() call) so the
// driver can always terminate it. Counted loops and range loops are
// bounded by construction; tiny unbounded loops without nested work
// (heap sift-down, slice growth) terminate on their own structure and
// are exempt.
//
// The check is syntactic on the method names Step/Exhausted: budget
// polling that is hidden behind a helper should either poll in the loop
// or carry a //lint:allow budgetpoll directive naming the helper.
var Budgetpoll = &Analyzer{
	Name: "budgetpoll",
	Doc:  "unbounded fixpoint/closure loops in substrate packages must poll the budget token",
	Run:  runBudgetpoll,
}

func runBudgetpoll(pass *Pass) error {
	inScope := false
	for _, p := range budgetpollScope {
		if pass.Path == p {
			inScope = true
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			fs, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			if fs.Init != nil || fs.Post != nil {
				return true // counted loop: bounded by construction
			}
			if !containsLoop(fs.Body) {
				return true // no nested work: structural termination
			}
			if containsSafePoint(fs.Body) {
				return true
			}
			pass.Report(fs.Pos(),
				"unbounded loop drives nested iteration without a budget safe point: poll token.Step or token.Exhausted so the run stays killable (PR 5 invariant)")
			return true
		})
	}
	return nil
}

// containsLoop reports whether body contains any for/range statement,
// including inside function literals: a closure defined in a fixpoint
// body typically runs there (transfer functions, callbacks), so its
// iteration counts as the loop's work.
func containsLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// containsSafePoint reports whether body calls a Step or Exhausted
// method — the budget.Token polling surface.
func containsSafePoint(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Step" || sel.Sel.Name == "Exhausted" {
				found = true
			}
		}
		return !found
	})
	return found
}
