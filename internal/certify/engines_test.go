package certify

import (
	"math/rand"
	"testing"

	"repro/internal/linear"
)

// engineSystem draws up to maxCons constraints over n variables, a quarter
// of them equalities, from the same small-coefficient distribution as the
// polyhedra cross-checks, so every system fits the int64 engine.
func engineSystem(rng *rand.Rand, n, maxCons int) linear.System {
	var sys linear.System
	for i, k := 0, rng.Intn(maxCons+1); i < k; i++ {
		e := linear.Expr{}
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				e = e.Add(linear.VarExpr(v).Scale(int64(rng.Intn(9) - 4)))
			}
		}
		e = e.Add(linear.ConstExpr(int64(rng.Intn(21) - 10)))
		if rng.Intn(4) == 0 {
			sys = append(sys, linear.NewEq(e))
		} else {
			sys = append(sys, linear.NewGe(e))
		}
	}
	return sys
}

// engineTarget draws an entailment target. Half the time it repeats a
// premise constraint with its constant relaxed by 0..2, the shape the int64
// engine's premise-subsumption index answers without elimination; the big
// engine has no such index and must reach the same answer by
// Fourier–Motzkin.
func engineTarget(rng *rand.Rand, sys linear.System, n int) linear.Constraint {
	if len(sys) > 0 && rng.Intn(2) == 0 {
		c := sys[rng.Intn(len(sys))]
		e := c.E.Add(linear.ConstExpr(int64(rng.Intn(3))))
		if c.Rel == linear.Eq && rng.Intn(2) == 0 {
			return linear.NewEq(e)
		}
		return linear.NewGe(e)
	}
	if t := engineSystem(rng, n, 1); len(t) == 1 {
		return t[0]
	}
	return linear.NewGe(linear.ConstExpr(0))
}

// TestEnginesAgree runs the int64 engine (iPrepRows, iUnsatRows,
// iprep.entailsRow over iRowFromExpr rows, as the compiled checker drives
// it) and the big.Int engine (bPrepSystem, unsatRows, bprep.entails) on one
// seeded corpus and requires identical Unsat and Entails answers. The big
// engine is the trusted core of DESIGN.md §5.3; the checker reaches it only
// when int64 arithmetic overflows.
func TestEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// entailed and refuted count targets of satisfiable premises only (an
	// unsat premise entails everything).
	unsats, entailed, refuted := 0, 0, 0
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(5)
		sys := engineSystem(rng, n, 7)

		var pm premise
		pm.addSystem(sys, n)
		ip, bp := iPrepRows(pm.eqs, pm.ges, n), bPrepSystem(sys, n)
		iu := ip.unsat || iUnsatRows(ip.rows, n)
		bu := bp.unsat || unsatRows(bp.rows, n)
		if iu != bu {
			t.Fatalf("case %d: int64 Unsat=%v, big.Int Unsat=%v for %s",
				i, iu, bu, FormatSystem(sys, nil))
		}
		if bu {
			unsats++
		}

		for j := 0; j < 4; j++ {
			c := engineTarget(rng, sys, n)
			ie := ip.entailsRow(iRowFromExpr(c.E, c.E.Vars(), n), c.Rel == linear.Eq)
			be := bp.entails(c)
			if ie != be {
				t.Fatalf("case %d.%d: int64 entails=%v, big.Int entails=%v for %s |= %s",
					i, j, ie, be, FormatSystem(sys, nil), c.String(nil))
			}
			switch {
			case bu:
			case be:
				entailed++
			default:
				refuted++
			}
		}
	}
	t.Logf("%d/2000 premises unsat; targets of sat premises: %d entailed, %d not", unsats, entailed, refuted)
	// Both answers must occur often, or the corpus exercises only one side
	// of each decision.
	if unsats < 200 || unsats > 1800 || entailed < 500 || refuted < 500 {
		t.Fatalf("degenerate corpus: %d unsat premises, %d entailed, %d not entailed", unsats, entailed, refuted)
	}
}
