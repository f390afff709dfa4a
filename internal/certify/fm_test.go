package certify

import (
	"testing"

	"repro/internal/linear"
)

// ge builds the constraint sum(terms) + k >= 0 where terms maps variable
// index to coefficient.
func ge(k int64, terms ...int64) linear.Constraint {
	return linear.NewGe(expr(k, terms...))
}

func eq(k int64, terms ...int64) linear.Constraint {
	return linear.NewEq(expr(k, terms...))
}

// expr builds sum(terms[i] * x_i) + k from positional coefficients.
func expr(k int64, terms ...int64) linear.Expr {
	e := linear.ConstExpr(k)
	for v, c := range terms {
		if c != 0 {
			e = e.Add(linear.VarExpr(v).Scale(c))
		}
	}
	return e
}

func TestUnsatBasics(t *testing.T) {
	cases := []struct {
		name  string
		sys   linear.System
		n     int
		unsat bool
	}{
		{"empty is sat", linear.System{}, 2, false},
		{"x >= 0 is sat", linear.System{ge(0, 1)}, 1, false},
		{"x >= 1 and -x >= 0", linear.System{ge(-1, 1), ge(0, -1)}, 1, true},
		{"x >= 0 and -x >= 0 (x = 0)", linear.System{ge(0, 1), ge(0, -1)}, 1, false},
		{"constant -1 >= 0", linear.System{ge(-1)}, 1, true},
		{"constant 0 >= 0", linear.System{ge(0)}, 1, false},
		{"x = 1 and x = 2", linear.System{eq(-1, 1), eq(-2, 1)}, 1, true},
		// x + y >= 3, -x >= -1, -y >= -1: needs the combination step.
		{"sum exceeds bounds", linear.System{ge(-3, 1, 1), ge(1, -1), ge(1, 0, -1)}, 2, true},
		// x + y >= 2 with x,y <= 1 is satisfiable at (1,1).
		{"sum meets bounds", linear.System{ge(-2, 1, 1), ge(1, -1), ge(1, 0, -1)}, 2, false},
		// Rational-only: 2x = 1 is rationally sat (x = 1/2) — Unsat is a
		// rational test, so it must answer "sat".
		{"2x = 1 rational point", linear.System{eq(-1, 2)}, 1, false},
		// Transitive chain: x >= y, y >= z, z >= x+1.
		{"strict cycle", linear.System{ge(0, 1, -1), ge(0, 0, 1, -1), ge(-1, -1, 0, 1)}, 3, true},
		{"lax cycle", linear.System{ge(0, 1, -1), ge(0, 0, 1, -1), ge(0, -1, 0, 1)}, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Unsat(tc.sys, tc.n); got != tc.unsat {
				t.Errorf("Unsat(%s) = %v, want %v", FormatSystem(tc.sys, nil), got, tc.unsat)
			}
		})
	}
}

func TestEntailsBasics(t *testing.T) {
	cases := []struct {
		name    string
		sys     linear.System
		c       linear.Constraint
		n       int
		entails bool
	}{
		{"x >= 1 entails x >= 0", linear.System{ge(-1, 1)}, ge(0, 1), 1, true},
		{"x >= 0 does not entail x >= 1", linear.System{ge(0, 1)}, ge(-1, 1), 1, false},
		{"x = 2 entails x >= 2", linear.System{eq(-2, 1)}, ge(-2, 1), 1, true},
		{"x = 2 entails 2x = 4", linear.System{eq(-2, 1)}, eq(-4, 2), 1, true},
		{"x >= 2 does not entail x = 2", linear.System{ge(-2, 1)}, eq(-2, 1), 1, false},
		{"unsat entails anything", linear.System{ge(-1)}, eq(-7, 1), 1, true},
		{"tautology always entailed", linear.System{}, ge(5), 1, true},
		// x >= y and y >= z entail x >= z.
		{"transitivity", linear.System{ge(0, 1, -1), ge(0, 0, 1, -1)}, ge(0, 1, 0, -1), 3, true},
		// x + y = 10 and x >= 6 entail y <= 4 (4 - y >= 0).
		{"linear combination", linear.System{eq(-10, 1, 1), ge(-6, 1)}, ge(4, 0, -1), 2, true},
		// Integer-only entailment must NOT hold rationally: 2x >= 1 entails
		// x >= 1 over the integers but not over the rationals (x = 1/2).
		// The checker is rational, so it must answer false.
		{"no integer tightening", linear.System{ge(-1, 2)}, ge(-1, 1), 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Entails(tc.sys, tc.c, tc.n); got != tc.entails {
				t.Errorf("Entails(%s |= ...) = %v, want %v",
					FormatSystem(tc.sys, nil), got, tc.entails)
			}
		})
	}
}

func TestFirstUnentailed(t *testing.T) {
	sys := linear.System{ge(-1, 1), ge(0, 0, 1)} // x >= 1, y >= 0
	target := linear.System{ge(0, 1), ge(-1, 1, 1)}
	if c, notEntailed := FirstUnentailed(sys, target, 2); notEntailed {
		t.Errorf("expected entailment of %s, %s is not entailed", FormatSystem(target, nil), c.String(nil))
	}
	bad := linear.System{ge(0, 1), ge(-5, 0, 1)} // y >= 5 is not implied
	c, notEntailed := FirstUnentailed(sys, bad, 2)
	if !notEntailed {
		t.Fatalf("FirstUnentailed found nothing")
	}
	if got := c.String(nil); got != bad[1].String(nil) {
		t.Errorf("FirstUnentailed = %s, want %s", got, bad[1].String(nil))
	}
}

func TestUnsatHighDimension(t *testing.T) {
	// A chain x0 >= x1 + 1 >= x2 + 2 >= ... with a closing constraint that
	// contradicts the accumulated slack; exercises repeated elimination.
	const n = 12
	var sys linear.System
	for i := 0; i+1 < n; i++ {
		e := linear.VarExpr(i)
		e = e.Add(linear.VarExpr(i + 1).Scale(-1))
		e = e.Add(linear.ConstExpr(-1)) // x_i - x_{i+1} - 1 >= 0
		sys = append(sys, linear.NewGe(e))
	}
	closing := linear.VarExpr(n - 1)
	closing = closing.Add(linear.VarExpr(0).Scale(-1))
	// x_{n-1} - x_0 + (n-2) >= 0 contradicts the chain (which forces
	// x_0 - x_{n-1} >= n-1).
	closing = closing.Add(linear.ConstExpr(int64(n - 2)))
	sys = append(sys, linear.NewGe(closing))
	if !Unsat(sys, n) {
		t.Errorf("chain system should be unsat")
	}
	// Relaxing the closing constraint by 1 makes it satisfiable.
	sys[len(sys)-1].E = closing.Add(linear.ConstExpr(1))
	if Unsat(sys, n) {
		t.Errorf("relaxed chain system should be sat")
	}
}
