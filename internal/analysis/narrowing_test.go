package analysis

import (
	"testing"

	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/polyhedra"
)

// Narrowing recomputes a node only when one of its predecessors' in-states
// took a new representation after the node was last computed. These tests
// pin, per domain, the invariants that depend on that staleness test firing.

// lin is c + Σ k*v over (coefficient, variable) pairs.
func lin(c int64, terms ...int64) linear.Expr {
	e := linear.ConstExpr(c)
	for i := 0; i+1 < len(terms); i += 2 {
		e = e.Add(linear.VarExpr(int(terms[i+1])).Scale(terms[i]))
	}
	return e
}

// wantState checks that res's in-state at stmt denotes exactly the points
// of want. Both sides are compared as polyhedra, so the check does not
// depend on the domain's representation.
func wantState(t *testing.T, dom Domain, res *Result, stmt int, want linear.System) {
	t.Helper()
	n := res.Prog.NumVars()
	got := res.States[stmt].System()
	if !polyhedra.FromSystem(got, n).Equal(polyhedra.FromSystem(want, n)) {
		t.Errorf("%s: in-state of stmt %d = %s, want %s", dom.Name(), stmt,
			got.String(res.Prog.Space), want.String(res.Prog.Space))
	}
}

// buildLateExit returns a program whose loop exit flows back to a label that
// precedes the loop in statement order:
//
//	 0: goto start
//	 1: J:
//	 2: y := x
//	 3: goto end
//	 4: start:
//	 5: x := 0
//	 6: head:
//	 7: if x >= 10 goto out
//	 8: x := x + 1
//	 9: goto head
//	10: out:
//	11: goto J
//	12: end:
//
// Widening leaves x >= 10 at out. The first narrowing pass bounds the loop
// and narrows out to x == 10, but only after it has already recomputed J
// (statement 1) from the stale x >= 10; the second pass must recompute J,
// and then statement 2, from the changed predecessor.
func buildLateExit() (*ip.Program, int, int) {
	p := ip.New("lateexit")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	p.Emit(&ip.Goto{Target: "start"})
	p.Emit(&ip.Label{Name: "J"})
	p.Emit(&ip.Assign{V: y, E: linear.VarExpr(x)})
	p.Emit(&ip.Goto{Target: "end"})
	p.Emit(&ip.Label{Name: "start"})
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&ip.Label{Name: "head"})
	p.Emit(&ip.IfGoto{C: ip.Single(linear.NewGe(lin(-10, 1, int64(x)))), Target: "out"})
	p.Emit(&ip.Assign{V: x, E: lin(1, 1, int64(x))})
	p.Emit(&ip.Goto{Target: "head"})
	p.Emit(&ip.Label{Name: "out"})
	p.Emit(&ip.Goto{Target: "J"})
	p.Emit(&ip.Label{Name: "end"})
	return p, x, y
}

func TestNarrowingRecomputesAfterLateChange(t *testing.T) {
	for _, dom := range []Domain{PolyDomain{}, ZoneDomain{}} {
		p, x, y := buildLateExit()
		res, err := Analyze(p, Options{Domain: dom})
		if err != nil {
			t.Fatal(err)
		}
		xIs10 := linear.System{linear.NewEq(lin(-10, 1, int64(x)))}
		wantState(t, dom, res, 6, linear.System{ // head: 0 <= x <= 10
			linear.NewGe(lin(0, 1, int64(x))), linear.NewGe(lin(10, -1, int64(x))),
		})
		wantState(t, dom, res, 11, xIs10)        // out, narrowed in pass 1
		wantState(t, dom, res, 1, xIs10)         // J, narrowed only in pass 2
		wantState(t, dom, res, 3, linear.System{ // after y := x
			linear.NewEq(lin(-10, 1, int64(x))), linear.NewEq(lin(-10, 1, int64(y))),
		})

		// One pass leaves J at the widened bound: the refinement above is
		// the second pass's work.
		p, x, _ = buildLateExit()
		res, err = Analyze(p, Options{Domain: dom, NarrowingPasses: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantState(t, dom, res, 1, linear.System{linear.NewGe(lin(-10, 1, int64(x)))})
	}
}

// buildSelfLoop returns a one-block loop that jumps back to its own label:
//
//	0: x := 0
//	1: y := 0
//	2: L:
//	3: y := 2*x
//	4: x := x + 1
//	5: if x <= 9 goto L
//	6: (exit)
//
// The first narrowing pass narrows L and then L's own back-edge
// predecessor (statement 5), so the second pass must revisit L. Only the
// interval domain needs that revisit for precision: it loses y = 2*x - 2,
// so y's bound reaches L one pass after x's.
func buildSelfLoop() (*ip.Program, int, int) {
	p := ip.New("selfloop")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&ip.Assign{V: y, E: linear.ConstExpr(0)})
	p.Emit(&ip.Label{Name: "L"})
	p.Emit(&ip.Assign{V: y, E: lin(0, 2, int64(x))})
	p.Emit(&ip.Assign{V: x, E: lin(1, 1, int64(x))})
	p.Emit(&ip.IfGoto{C: ip.Single(linear.NewGe(lin(9, -1, int64(x)))), Target: "L"})
	return p, x, y
}

func TestNarrowingSelfLoop(t *testing.T) {
	_, x, y := buildSelfLoop()
	xi, yi := int64(x), int64(y)
	xIn09 := []linear.Constraint{linear.NewGe(lin(0, 1, xi)), linear.NewGe(lin(9, -1, xi))}
	yIn018 := []linear.Constraint{linear.NewGe(lin(0, 1, yi)), linear.NewGe(lin(18, -1, yi))}
	xIs10 := linear.NewEq(lin(-10, 1, xi))
	for _, tc := range []struct {
		dom        Domain
		atL, atEnd linear.System
	}{
		// The hull of (0,0), (1,0) and (9,16).
		{PolyDomain{},
			linear.System{linear.NewGe(lin(2, -2, xi, 1, yi)), linear.NewGe(lin(0, 16, xi, -9, yi)), linear.NewGe(lin(0, 1, yi))},
			linear.System{xIs10, linear.NewEq(lin(-18, 1, yi))}},
		// Zones cannot express y := 2*x and havoc y.
		{ZoneDomain{}, xIn09, linear.System{xIs10}},
		{IntervalDomain{}, append(append(linear.System{}, xIn09...), yIn018...), append(linear.System{xIs10}, yIn018...)},
	} {
		p, _, _ := buildSelfLoop()
		res, err := Analyze(p, Options{Domain: tc.dom})
		if err != nil {
			t.Fatal(err)
		}
		wantState(t, tc.dom, res, 2, tc.atL)
		wantState(t, tc.dom, res, 6, tc.atEnd)
	}

	// With one pass, y's bound has not yet come round to L.
	p, _, _ := buildSelfLoop()
	res, err := Analyze(p, Options{Domain: IntervalDomain{}, NarrowingPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, IntervalDomain{}, res, 2, append(linear.System{linear.NewGe(lin(0, 1, yi))}, xIn09...))
}

// TestNarrowingKeylessAlwaysRecomputed runs the late-change program under
// the interval domain, whose states cannot compare representations: every
// narrowed state must count as changed, or neither J nor its successor
// would ever see the exit's refinement.
func TestNarrowingKeylessAlwaysRecomputed(t *testing.T) {
	dom := IntervalDomain{}
	if u := dom.Universe(1); u.SameRepr(u) {
		t.Fatal("the interval domain compares representations; pick a domain that does not for this test")
	}
	p, x, y := buildLateExit()
	res, err := Analyze(p, Options{Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, dom, res, 1, linear.System{linear.NewEq(lin(-10, 1, int64(x)))})
	wantState(t, dom, res, 3, linear.System{
		linear.NewEq(lin(-10, 1, int64(x))), linear.NewEq(lin(-10, 1, int64(y))),
	})
}
