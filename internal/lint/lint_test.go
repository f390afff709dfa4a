package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// fixture runs one analyzer over its testdata package and checks the
// want expectations plus the number of //lint:allow suppressions.
func fixture(t *testing.T, a *Analyzer, path string, wantSuppressed int) {
	t.Helper()
	fr, err := RunFixture("testdata", a, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fr.Errors {
		t.Error(e)
	}
	if len(fr.Suppressed) != wantSuppressed {
		t.Errorf("suppressed findings = %d, want %d: %v",
			len(fr.Suppressed), wantSuppressed, fr.Suppressed)
	}
	for _, d := range fr.Suppressed {
		if d.AllowReason == "" {
			t.Errorf("suppressed finding without a recorded reason: %s", d)
		}
	}
}

func TestGlobalmutFixture(t *testing.T) {
	fixture(t, Globalmut, "repro/internal/globalmutfix", 1)
}

func TestLayeringFixtures(t *testing.T) {
	t.Run("certify", func(t *testing.T) { fixture(t, Layering, "repro/internal/certify", 0) })
	t.Run("ip", func(t *testing.T) { fixture(t, Layering, "repro/internal/ip", 0) })
	t.Run("budget", func(t *testing.T) { fixture(t, Layering, "repro/internal/budget", 0) })
	t.Run("substrate", func(t *testing.T) { fixture(t, Layering, "repro/internal/zone", 0) })
	t.Run("cache", func(t *testing.T) { fixture(t, Layering, "repro/internal/cache", 0) })
	t.Run("schedule", func(t *testing.T) { fixture(t, Layering, "repro/internal/schedule", 0) })
}

func TestDeterminismFixture(t *testing.T) {
	fixture(t, Determinism, "repro/internal/core", 1)
}

func TestBudgetpollFixture(t *testing.T) {
	fixture(t, Budgetpoll, "repro/internal/polyhedra", 1)
}

func TestLayoutconstFixture(t *testing.T) {
	fixture(t, Layoutconst, "repro/internal/layoutfix", 1)
}

func TestSoundverdictFixtures(t *testing.T) {
	t.Run("outside-engine", func(t *testing.T) { fixture(t, Soundverdict, "repro/internal/table5", 1) })
	t.Run("engine-itself", func(t *testing.T) { fixture(t, Soundverdict, "repro/internal/analysis", 0) })
}

// TestCollectAllows pins the directive grammar: rule plus mandatory
// reason, matching on the flagged line or the line above.
func TestCollectAllows(t *testing.T) {
	src := `package p

//lint:allow globalmut covered by a run-scoped reset in Analyze
var x int

var y int //lint:allow globalmut same-line directive

//lint:allow globalmut
var broken int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allows, malformed := collectAllows(fset, []*ast.File{f})

	if len(malformed) != 1 || !strings.Contains(malformed[0].Message, "malformed lint:allow") {
		t.Fatalf("malformed = %v, want one malformed-directive diagnostic", malformed)
	}

	diagAt := func(line int) Diagnostic {
		return Diagnostic{Rule: "globalmut", Pos: token.Position{Filename: "p.go", Line: line}}
	}
	if reason, ok := allows.match(diagAt(4)); !ok || !strings.Contains(reason, "run-scoped reset") {
		t.Errorf("line-above directive: ok=%v reason=%q", ok, reason)
	}
	if reason, ok := allows.match(diagAt(6)); !ok || reason != "same-line directive" {
		t.Errorf("same-line directive: ok=%v reason=%q", ok, reason)
	}
	if _, ok := allows.match(Diagnostic{Rule: "layering", Pos: token.Position{Filename: "p.go", Line: 4}}); ok {
		t.Error("directive for a different rule must not match")
	}
	if _, ok := allows.match(diagAt(9)); ok {
		t.Error("malformed directive (no reason) must not suppress")
	}
}

// TestSuite pins the analyzer set and name uniqueness (names are the
// lint:allow vocabulary).
func TestSuite(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Suite() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("incomplete analyzer %+v", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{"globalmut", "layering", "determinism", "budgetpoll", "soundverdict", "layoutconst"} {
		if !seen[want] {
			t.Errorf("suite is missing %s", want)
		}
	}
}
