package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ip"
	"repro/internal/linear"
)

// genIP builds a random small integer program: straight-line blocks,
// a bounded loop, assumes, havocs, and asserts over three variables.
func genIP(rng *rand.Rand) *ip.Program {
	p := ip.New("gen")
	vars := []int{p.Space.Var("x"), p.Space.Var("y"), p.Space.Var("z")}
	randExpr := func() linear.Expr {
		e := linear.ConstExpr(rng.Int63n(7) - 3)
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				e = e.Add(linear.VarExpr(v).Scale(rng.Int63n(5) - 2))
			}
		}
		return e
	}
	randCons := func() linear.Constraint {
		if rng.Intn(4) == 0 {
			return linear.NewEq(randExpr())
		}
		return linear.NewGe(randExpr())
	}
	nlabels := 0
	label := func() string {
		nlabels++
		return fmt.Sprintf("L%d", nlabels)
	}

	n := 4 + rng.Intn(6)
	var pending []string // labels to place later (forward jumps)
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			p.Emit(&ip.Assign{V: vars[rng.Intn(3)], E: randExpr()})
		case 1:
			p.Emit(&ip.Havoc{V: vars[rng.Intn(3)]})
		case 2:
			p.Emit(&ip.Assume{C: ip.Single(randCons())})
		case 3:
			p.Emit(&ip.Assert{C: ip.Single(randCons()), Msg: fmt.Sprintf("a%d", i)})
		case 4:
			l := label()
			p.Emit(&ip.IfGoto{C: ip.Single(randCons()), Target: l})
			pending = append(pending, l)
		case 5:
			l := label()
			p.Emit(&ip.IfGoto{Target: l}) // nondeterministic
			pending = append(pending, l)
		}
	}
	// A bounded counting loop at the end exercises widening.
	x := vars[0]
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&ip.Label{Name: "loop"})
	bound := linear.ConstExpr(int64(3 + rng.Intn(5)))
	bound = bound.Sub(linear.VarExpr(x))
	p.Emit(&ip.IfGoto{C: ip.Single(linear.NewGe(linear.VarExpr(x).Sub(linear.ConstExpr(3)))), Target: "out"})
	_ = bound
	inc := linear.VarExpr(x)
	inc = inc.Add(linear.ConstExpr(1))
	p.Emit(&ip.Assign{V: x, E: inc})
	p.Emit(&ip.Goto{Target: "loop"})
	p.Emit(&ip.Label{Name: "out"})
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(linear.VarExpr(x))), Msg: "exit"})
	for _, l := range pending {
		p.Emit(&ip.Label{Name: l})
	}
	return p
}

// TestEngineSoundVsInterpreter: any assert a concrete execution of the IP
// violates must be reported by the abstract analysis, for every domain.
func TestEngineSoundVsInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	domains := []Domain{PolyDomain{}, ZoneDomain{}, IntervalDomain{}}
	violatedTotal := 0
	for trial := 0; trial < 60; trial++ {
		p := genIP(rng)
		// Concrete runs.
		concrete := map[int]bool{}
		for run := 0; run < 40; run++ {
			violated, _ := p.Exec(rng, 500)
			for _, idx := range violated {
				concrete[idx] = true
			}
		}
		if len(concrete) > 0 {
			violatedTotal++
		}
		for _, dom := range domains {
			res, err := Analyze(p, Options{Domain: dom})
			if err != nil {
				t.Fatalf("trial %d (%s): %v", trial, dom.Name(), err)
			}
			reported := map[int]bool{}
			for _, v := range res.Violations {
				reported[v.Index] = true
			}
			for idx := range concrete {
				if !reported[idx] {
					t.Errorf("trial %d (%s): UNSOUND: concrete violation at %d not reported\n%s",
						trial, dom.Name(), idx, p.String())
				}
			}
		}
	}
	if violatedTotal == 0 {
		t.Error("no generated program violated anything; test checks nothing")
	}
	t.Logf("%d/60 programs had concrete violations; all were reported by all domains", violatedTotal)
}
