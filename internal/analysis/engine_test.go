package analysis

import (
	"strings"
	"testing"

	"repro/internal/ip"
	"repro/internal/linear"
)

// buildLoop constructs the canonical counting loop
//
//	x := 0
//	head: if (x >= n) goto end
//	assert(x <= 9)            // holds only when n <= 10 is assumed
//	x := x + 1
//	goto head
//	end: assert(x >= 0)
func buildLoop(assumeN bool) *ip.Program {
	p := ip.New("loop")
	x := p.Space.Var("x")
	n := p.Space.Var("n")
	ge := func(e linear.Expr) linear.Constraint { return linear.NewGe(e) }

	if assumeN {
		// n <= 10
		e := linear.ConstExpr(10)
		e = e.Sub(linear.VarExpr(n))
		p.Emit(&ip.Assume{C: ip.Single(ge(e))})
	}
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&ip.Label{Name: "head"})
	// if (x >= n) goto end
	cond := linear.VarExpr(x).Sub(linear.VarExpr(n))
	p.Emit(&ip.IfGoto{C: ip.Single(ge(cond)), Target: "end"})
	// assert(x <= 9)
	nine := linear.ConstExpr(9)
	nine = nine.Sub(linear.VarExpr(x))
	p.Emit(&ip.Assert{C: ip.Single(ge(nine)), Msg: "x <= 9"})
	// x := x + 1
	inc := linear.VarExpr(x)
	inc = inc.Add(linear.ConstExpr(1))
	p.Emit(&ip.Assign{V: x, E: inc})
	p.Emit(&ip.Goto{Target: "head"})
	p.Emit(&ip.Label{Name: "end"})
	// assert(x >= 0): the loop counter never goes negative.
	p.Emit(&ip.Assert{C: ip.Single(ge(linear.VarExpr(x))), Msg: "x >= 0"})
	return p
}

func TestEngineLoopInvariant(t *testing.T) {
	res, err := Analyze(buildLoop(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("unexpected violation: %s", v.Msg)
	}
}

func TestEngineDetectsUnboundedLoop(t *testing.T) {
	// Without n <= 10 the in-loop assert x <= 9 must fail, and the exit
	// assert x >= 0 must still hold (widening keeps the lower bound).
	res, err := Analyze(buildLoop(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		for _, v := range res.Violations {
			t.Logf("violation: %s", v.Msg)
		}
		t.Fatalf("want exactly 1 violation, got %d", len(res.Violations))
	}
	if res.Violations[0].Msg != "x <= 9" {
		t.Errorf("wrong assert flagged: %s", res.Violations[0].Msg)
	}
	if res.Violations[0].CounterExample == nil {
		t.Error("no counter-example produced")
	}
}

func TestEngineHavocAndAssume(t *testing.T) {
	p := ip.New("t")
	x := p.Space.Var("x")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(5)})
	p.Emit(&ip.Havoc{V: x})
	// assert(x == 5) must now fail.
	e := linear.VarExpr(x)
	e = e.Add(linear.ConstExpr(-5))
	p.Emit(&ip.Assert{C: ip.Single(linear.NewEq(e)), Msg: "x == 5"})
	res, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("havoc not applied: %d violations", len(res.Violations))
	}
}

func TestEngineNondeterministicBranch(t *testing.T) {
	// if (unknown) x := 1 else x := 2; assert(1 <= x <= 2).
	p := ip.New("t")
	x := p.Space.Var("x")
	p.Emit(&ip.IfGoto{Target: "other"})
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(1)})
	p.Emit(&ip.Goto{Target: "join"})
	p.Emit(&ip.Label{Name: "other"})
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(2)})
	p.Emit(&ip.Label{Name: "join"})
	lo := linear.VarExpr(x)
	lo = lo.Add(linear.ConstExpr(-1))
	hi := linear.ConstExpr(2)
	hi = hi.Sub(linear.VarExpr(x))
	p.Emit(&ip.Assert{C: ip.Conj(linear.NewGe(lo), linear.NewGe(hi)), Msg: "1<=x<=2"})
	exact := linear.VarExpr(x)
	exact = exact.Add(linear.ConstExpr(-1))
	p.Emit(&ip.Assert{C: ip.Single(linear.NewEq(exact)), Msg: "x==1"})
	res, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || res.Violations[0].Msg != "x==1" {
		t.Errorf("violations: %+v", res.Violations)
	}
}

func TestEngineUnverifiableAssert(t *testing.T) {
	p := ip.New("t")
	p.Emit(&ip.Assert{C: ip.False(), Msg: "opaque", Unverifiable: true})
	res, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || !res.Violations[0].Unverifiable {
		t.Errorf("unverifiable assert mishandled: %+v", res.Violations)
	}
}

func TestEngineUnreachableAssertSilent(t *testing.T) {
	p := ip.New("t")
	x := p.Space.Var("x")
	p.Emit(&ip.Assume{C: ip.False()})
	e := linear.VarExpr(x)
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(e)), Msg: "dead"})
	res, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("assert in unreachable code reported: %+v", res.Violations)
	}
}

func TestEngineDomains(t *testing.T) {
	// The relational loop invariant holds only under polyhedra/zone: after
	// y := x (copy), assert x - y == 0 across a havocked context.
	mk := func() *ip.Program {
		p := ip.New("t")
		x := p.Space.Var("x")
		y := p.Space.Var("y")
		p.Emit(&ip.Havoc{V: x})
		p.Emit(&ip.Assign{V: y, E: linear.VarExpr(x)})
		diff := linear.VarExpr(x).Sub(linear.VarExpr(y))
		p.Emit(&ip.Assert{C: ip.Single(linear.NewEq(diff)), Msg: "x == y"})
		return p
	}
	for _, tc := range []struct {
		dom  Domain
		want int
	}{
		{PolyDomain{}, 0},
		{ZoneDomain{}, 0},
		{IntervalDomain{}, 1}, // non-relational: cannot prove x == y
	} {
		res, err := Analyze(mk(), Options{Domain: tc.dom})
		if err != nil {
			t.Fatalf("%s: %v", tc.dom.Name(), err)
		}
		if len(res.Violations) != tc.want {
			t.Errorf("%s: %d violations, want %d", tc.dom.Name(), len(res.Violations), tc.want)
		}
	}
}

func TestFormatViolationRendering(t *testing.T) {
	p := buildLoop(false)
	res, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("no violation to format")
	}
	out := FormatViolation(res.Violations[0], p.Space)
	if !strings.Contains(out, "may be violated") || !strings.Contains(out, "x =") {
		t.Errorf("report:\n%s", out)
	}
}
