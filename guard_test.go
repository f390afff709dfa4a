package cssv

import (
	"testing"

	"repro/internal/lint"
)

// TestLintSuite runs the cssv-lint analyzers (internal/lint) over the
// whole module as a regression test, so `go test ./...` alone — without
// the cssv-lint binary — still enforces the invariant catalog: no mutable
// package-scope state in analysis packages (the guard that used to live
// here as hand-rolled AST walking), the layering DAG (certify never
// links the code it checks), determinism of report assembly, budget
// safe points in substrate fixpoints, and verdict-constructor
// discipline. It loads the module exactly as `cssv-lint ./...` does
// (strictly, tests included), which CI also runs for readable output.
func TestLintSuite(t *testing.T) {
	loader := &lint.Loader{IncludeTests: true}
	pkgs, err := loader.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	suite := lint.Suite()
	for _, pkg := range pkgs {
		res, err := lint.Run(pkg, suite)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range res.Diags {
			t.Errorf("%s", d.String())
		}
	}
}
