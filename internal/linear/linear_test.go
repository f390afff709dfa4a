package linear

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestSpace(t *testing.T) {
	sp := NewSpace()
	x := sp.Var("x")
	y := sp.Var("y")
	if x == y {
		t.Fatal("distinct names share an index")
	}
	if sp.Var("x") != x {
		t.Error("Var not idempotent")
	}
	if sp.Dim() != 2 {
		t.Errorf("dim = %d", sp.Dim())
	}
	if sp.Name(x) != "x" || sp.Name(y) != "y" {
		t.Error("names wrong")
	}
	if _, ok := sp.Lookup("z"); ok {
		t.Error("phantom lookup")
	}
	if got := sp.Names(); len(got) != 2 || got[0] != "x" {
		t.Errorf("Names = %v", got)
	}
}

func TestExprArithmetic(t *testing.T) {
	// e = 2x - 3y + 5
	e := ConstExpr(5)
	e = e.Add(VarExpr(0).Scale(2))
	e = e.Add(VarExpr(1).Scale(-3))
	f := VarExpr(0).Scale(2) // 2x
	sum := e.Add(f)          // 4x - 3y + 5
	if sum.Coef(0).Int64() != 4 || sum.Coef(1).Int64() != -3 || sum.Const().Int64() != 5 {
		t.Errorf("sum = %s", sum.String(nil))
	}
	diff := e.Sub(e)
	if !diff.IsConst() || diff.Const().Sign() != 0 {
		t.Errorf("e - e = %s", diff.String(nil))
	}
	// Cancelled coefficients disappear from Vars.
	g := VarExpr(3).Add(VarExpr(3).Scale(-1))
	if len(g.Vars()) != 0 {
		t.Errorf("cancelled term kept: %v", g.Vars())
	}
}

func TestExprSubst(t *testing.T) {
	// e = x + 2y; substitute y := x + 1 -> 3x + 2.
	e := VarExpr(0).Add(VarExpr(1).Scale(2))
	r := VarExpr(0)
	r = r.Add(ConstExpr(1))
	out := e.Subst(1, r)
	if out.Coef(0).Int64() != 3 || out.Const().Int64() != 2 || len(out.Vars()) != 1 {
		t.Errorf("subst = %s", out.String(nil))
	}
	// Substituting an absent variable is a no-op.
	same := e.Subst(7, r)
	if same.String(nil) != e.String(nil) {
		t.Error("no-op subst changed expression")
	}
}

func TestExprEval(t *testing.T) {
	e := ConstExpr(1)
	e = e.Add(VarExpr(0).Scale(2))
	e = e.Add(VarExpr(1).Scale(-1))
	pt := []*big.Int{big.NewInt(3), big.NewInt(4)}
	if got := e.Eval(pt); got.Int64() != 3 { // 2*3 - 4 + 1
		t.Errorf("eval = %v", got)
	}
}

func TestConstraints(t *testing.T) {
	e := VarExpr(0) // x >= 0
	ge := NewGe(e)
	pt0 := []*big.Int{big.NewInt(0)}
	ptm := []*big.Int{big.NewInt(-1)}
	if !ge.Holds(pt0) || ge.Holds(ptm) {
		t.Error("x >= 0 misevaluated")
	}
	gt := NewGt(VarExpr(0)) // x > 0 == x - 1 >= 0
	if gt.Holds(pt0) {
		t.Error("x > 0 holds at 0")
	}
	eq := NewEq(VarExpr(0))
	if !eq.Holds(pt0) || eq.Holds(ptm) {
		t.Error("x == 0 misevaluated")
	}
}

func TestTautologyContradiction(t *testing.T) {
	if !NewGe(ConstExpr(0)).IsTautology() || !NewGe(ConstExpr(3)).IsTautology() {
		t.Error("constant >= 0 not a tautology")
	}
	if !NewGe(ConstExpr(-1)).IsContradiction() {
		t.Error("-1 >= 0 not a contradiction")
	}
	if NewGe(VarExpr(0)).IsTautology() || NewGe(VarExpr(0)).IsContradiction() {
		t.Error("variable constraint misclassified")
	}
	if !NewEq(ConstExpr(0)).IsTautology() || !NewEq(ConstExpr(2)).IsContradiction() {
		t.Error("equality constants misclassified")
	}
}

// TestNegatePointwise (property): for integer points, Negate flips Holds.
func TestNegatePointwise(t *testing.T) {
	f := func(a, b, cc, x, y int8) bool {
		e := ConstExpr(int64(cc))
		e = e.Add(VarExpr(0).Scale(int64(a)))
		e = e.Add(VarExpr(1).Scale(int64(b)))
		for _, cons := range []Constraint{NewGe(e), NewEq(e)} {
			pt := []*big.Int{big.NewInt(int64(x)), big.NewInt(int64(y))}
			holds := cons.Holds(pt)
			negHolds := false
			for _, nc := range cons.Negate() {
				if nc.Holds(pt) {
					negHolds = true
				}
			}
			if holds == negHolds {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	sp := NewSpace()
	sp.Var("len")
	sp.Var("off")
	e := VarExpr(0).Sub(VarExpr(1))
	e = e.Add(ConstExpr(-3))
	c := NewGe(e)
	if got := c.String(sp); got != "len - off >= 3" {
		t.Errorf("rendered %q", got)
	}
	sys := System{c, NewEq(VarExpr(0))}
	if got := sys.String(sp); got != "len - off >= 3 && len = 0" {
		t.Errorf("system rendered %q", got)
	}
}
