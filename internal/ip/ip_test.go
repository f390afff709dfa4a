package ip

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/linear"
)

func c(coefs ...int64) linear.Constraint {
	e := linear.ConstExpr(coefs[0])
	for i := 1; i+1 < len(coefs); i += 2 {
		e = e.Add(linear.VarExpr(int(coefs[i+1])).Scale(coefs[i]))
	}
	return linear.NewGe(e)
}

func TestDNFBasics(t *testing.T) {
	if !True().IsTrue() || True().IsFalse() {
		t.Error("True misclassified")
	}
	if !False().IsFalse() || False().IsTrue() {
		t.Error("False misclassified")
	}
	d := Single(c(0, 1, 0)) // x0 >= 0
	if d.IsTrue() || d.IsFalse() {
		t.Error("single constraint misclassified")
	}
}

func TestDNFAndOr(t *testing.T) {
	a := Single(c(0, 1, 0))
	b := Single(c(0, 1, 1))
	and := a.And(b)
	if len(and) != 1 || len(and[0]) != 2 {
		t.Errorf("and shape: %v", and)
	}
	or := a.Or(b)
	if len(or) != 2 {
		t.Errorf("or shape: %v", or)
	}
	// Distribution: (a || b) && (a || b) has 4 disjuncts.
	dd := or.And(or)
	if len(dd) != 4 {
		t.Errorf("distributed and: %d disjuncts", len(dd))
	}
	if True().And(a).String(nil) != a.String(nil) {
		t.Error("True.And(a) != a")
	}
	if !False().And(a).IsFalse() {
		t.Error("False.And(a) should be false")
	}
	if False().Or(a).String(nil) != a.String(nil) {
		t.Error("False.Or(a) != a")
	}
}

func TestDNFNegate(t *testing.T) {
	// not(x >= 0) == -x - 1 >= 0 (x <= -1).
	d := Single(c(0, 1, 0))
	n := d.Negate()
	if len(n) != 1 || len(n[0]) != 1 {
		t.Fatalf("negation shape: %v", n.String(nil))
	}
	if got := n.String(nil); !strings.Contains(got, "-v0 >= 1") {
		t.Errorf("negation = %s", got)
	}
	// Double negation of a conjunction keeps its integer points.
	if True().Negate().IsFalse() == false {
		t.Error("not(true) != false")
	}
	if False().Negate().IsTrue() == false {
		t.Error("not(false) != true")
	}
}

// TestDNFNegateInvolution (property): negating twice preserves pointwise
// truth on random small assignments.
func TestDNFNegateInvolution(t *testing.T) {
	eval := func(d DNF, x, y int64) bool {
		if d.IsTrue() {
			return true
		}
		for _, conj := range d {
			all := true
			for _, cc := range conj {
				v := cc.E.Coef(0).Int64()*x + cc.E.Coef(1).Int64()*y + cc.E.Const().Int64()
				if cc.Rel == linear.Eq && v != 0 {
					all = false
				}
				if cc.Rel == linear.Ge && v < 0 {
					all = false
				}
			}
			if all {
				return true
			}
		}
		return false
	}
	f := func(a1, b1, c1, a2, b2, c2 int8, x, y int8) bool {
		mk := func(a, b, cc int8) linear.Constraint {
			e := linear.ConstExpr(int64(cc))
			e = e.Add(linear.VarExpr(0).Scale(int64(a)))
			e = e.Add(linear.VarExpr(1).Scale(int64(b)))
			return linear.NewGe(e)
		}
		d := Single(mk(a1, b1, c1)).Or(Single(mk(a2, b2, c2)))
		want := eval(d, int64(x), int64(y))
		got := !eval(d.Negate(), int64(x), int64(y))
		return want == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestProgramResolve(t *testing.T) {
	p := New("t")
	v := p.Space.Var("x")
	p.Emit(&Label{Name: "start"})
	p.Emit(&Assign{V: v, E: linear.ConstExpr(1)})
	p.Emit(&IfGoto{C: Single(c(0, 1, 0)), Target: "start"})
	p.Emit(&Goto{Target: "end"})
	p.Emit(&Label{Name: "end"})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if p.TargetOf("start") != 0 || p.TargetOf("end") != 4 {
		t.Errorf("targets: start=%d end=%d", p.TargetOf("start"), p.TargetOf("end"))
	}
	if p.Size() != 5 || p.NumVars() != 1 {
		t.Errorf("size=%d vars=%d", p.Size(), p.NumVars())
	}
}

func TestProgramResolveErrors(t *testing.T) {
	p := New("t")
	p.Emit(&Goto{Target: "nowhere"})
	if err := p.Resolve(); err == nil {
		t.Error("undefined label not reported")
	}
	q := New("t")
	q.Emit(&Label{Name: "dup"})
	q.Emit(&Label{Name: "dup"})
	if err := q.Resolve(); err == nil {
		t.Error("duplicate label not reported")
	}
}

func TestFallthroughCond(t *testing.T) {
	cond := Single(c(0, 1, 0))
	s := &IfGoto{C: cond, Target: "x"}
	if got := s.FallthroughCond().String(nil); !strings.Contains(got, "-v0 >= 1") {
		t.Errorf("default fallthrough = %s", got)
	}
	s2 := &IfGoto{C: cond, FalseC: Single(c(5)), Target: "x"}
	if got := s2.FallthroughCond().String(nil); strings.Contains(got, "v0") {
		t.Errorf("explicit FalseC ignored: %s", got)
	}
	s3 := &IfGoto{Target: "x"} // nondeterministic
	if !s3.FallthroughCond().IsTrue() {
		t.Error("nondet fallthrough should be true")
	}
}

func TestProgramString(t *testing.T) {
	p := New("demo")
	v := p.Space.Var("l.offset")
	p.Emit(&Assign{V: v, E: linear.ConstExpr(0)})
	p.Emit(&Havoc{V: v})
	p.Emit(&Assume{C: Single(c(0, 1, 0))})
	p.Emit(&Assert{C: Single(c(0, 1, 0)), Msg: "check"})
	out := p.String()
	for _, want := range []string{"l.offset := 0", "l.offset := unknown", "assume(", "assert(", "// check"} {
		if !strings.Contains(out, want) {
			t.Errorf("program text missing %q:\n%s", want, out)
		}
	}
}

func TestAsserts(t *testing.T) {
	p := New("t")
	p.Emit(&Assume{C: True()})
	p.Emit(&Assert{C: True(), Msg: "a"})
	p.Emit(&Assert{C: False(), Msg: "b"})
	idx := p.Asserts()
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 2 {
		t.Errorf("asserts = %v", idx)
	}
}
