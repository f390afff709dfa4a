// Cross-checks of the Fourier–Motzkin engine against the Chernikova-based
// polyhedra package. The two implementations share no code (the layering
// analyzer in internal/lint enforces that certify never imports
// polyhedra), so agreement on random systems is strong evidence both are
// right — and any disagreement pinpoints a bug in one of the two decision
// procedures the analyzer's soundness rests on.
package certify_test

import (
	"math/rand"
	"testing"

	"repro/internal/certify"
	"repro/internal/linear"
	"repro/internal/polyhedra"
)

// randomSystem draws up to maxCons constraints over n variables with small
// coefficients; the same seed always yields the same corpus.
func randomSystem(rng *rand.Rand, n, maxCons int) linear.System {
	var sys linear.System
	for i, k := 0, rng.Intn(maxCons+1); i < k; i++ {
		e := linear.Expr{}
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				e = e.Add(linear.VarExpr(v).Scale(int64(rng.Intn(7) - 3)))
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

func randomConstraint(rng *rand.Rand, n int) linear.Constraint {
	s := randomSystem(rng, n, 1)
	if len(s) == 1 {
		return s[0]
	}
	return linear.NewGe(linear.ConstExpr(0))
}

func TestUnsatAgreesWithPolyhedra(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(4)
		sys := randomSystem(rng, n, 6)
		fm := certify.Unsat(sys, n)
		ch := polyhedra.FromSystem(sys, n).IsEmpty()
		if fm != ch {
			t.Fatalf("case %d: Unsat=%v, polyhedra empty=%v for %s",
				i, fm, ch, certify.FormatSystem(sys, nil))
		}
	}
}

func TestEntailsAgreesWithPolyhedra(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(4)
		sys := randomSystem(rng, n, 5)
		c := randomConstraint(rng, n)
		fm := certify.Entails(sys, c, n)
		ch := polyhedra.FromSystem(sys, n).Entails(c)
		if fm != ch {
			t.Fatalf("case %d: Entails=%v, polyhedra=%v for %s |= %s",
				i, fm, ch, certify.FormatSystem(sys, nil), c.String(nil))
		}
	}
}

func TestFirstUnentailedAgreesWithIncludes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(3)
		q := randomSystem(rng, n, 4)
		p := randomSystem(rng, n, 4)
		// q |= p  iff  points(q) ⊆ points(p)  iff  poly(p).Includes(poly(q)).
		_, notEntailed := certify.FirstUnentailed(q, p, n)
		fm := !notEntailed
		ch := polyhedra.FromSystem(p, n).Includes(polyhedra.FromSystem(q, n))
		if fm != ch {
			t.Fatalf("case %d: entailed=%v, Includes=%v\n  q: %s\n  p: %s",
				i, fm, ch, certify.FormatSystem(q, nil), certify.FormatSystem(p, nil))
		}
	}
}

// decodeFuzzSystem deterministically maps a byte string to a small system
// plus a candidate constraint (3 variables, coefficients in [-3, 3]).
func decodeFuzzSystem(data []byte) (linear.System, linear.Constraint) {
	const n = 3
	next := func() (int64, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return int64(b%15) - 7, true
	}
	readCons := func() (linear.Constraint, bool) {
		e := linear.Expr{}
		any := false
		for v := 0; v < n; v++ {
			k, ok := next()
			if !ok {
				break
			}
			any = true
			e = e.Add(linear.VarExpr(v).Scale(k % 4))
		}
		k, ok := next()
		if ok {
			e = e.Add(linear.ConstExpr(k))
		}
		if !any && !ok {
			return linear.Constraint{}, false
		}
		rel, ok := next()
		if ok && rel%2 == 0 {
			return linear.NewEq(e), true
		}
		return linear.NewGe(e), true
	}
	var sys linear.System
	for len(sys) < 6 {
		c, ok := readCons()
		if !ok {
			break
		}
		sys = append(sys, c)
	}
	if len(sys) == 0 {
		return nil, linear.NewGe(linear.ConstExpr(0))
	}
	c := sys[len(sys)-1]
	return sys[:len(sys)-1], c
}

// FuzzEntails cross-checks the Fourier–Motzkin engine against the
// Chernikova-based polyhedra on arbitrary byte-derived systems. Run with
// `go test -fuzz=FuzzEntails ./internal/certify` to search beyond the seed
// corpus (testdata/fuzz/FuzzEntails).
func FuzzEntails(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{7, 7, 7, 0, 0, 14, 3, 9, 1, 12, 6})
	f.Add([]byte{0, 15, 30, 45, 60, 75, 90, 105, 120, 135})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return // keep eliminations small
		}
		const n = 3
		sys, c := decodeFuzzSystem(data)
		fmUnsat := certify.Unsat(sys, n)
		p := polyhedra.FromSystem(sys, n)
		if chUnsat := p.IsEmpty(); fmUnsat != chUnsat {
			t.Fatalf("Unsat=%v, polyhedra empty=%v for %s",
				fmUnsat, chUnsat, certify.FormatSystem(sys, nil))
		}
		fmEnt := certify.Entails(sys, c, n)
		if chEnt := p.Entails(c); fmEnt != chEnt {
			t.Fatalf("Entails=%v, polyhedra=%v for %s |= %s",
				fmEnt, chEnt, certify.FormatSystem(sys, nil), c.String(nil))
		}
	})
}

// TestOverflowDemotionAgreesWithPolyhedra checks systems whose coefficients
// lie near 2^62. Fourier–Motzkin combination multiplies two of them, which
// would overflow int64 arithmetic; Unsat and Entails run on the big.Int
// engine. The polyhedra package promotes on overflow and stays exact, so
// the answers must agree.
func TestOverflowDemotionAgreesWithPolyhedra(t *testing.T) {
	const a, b = 1<<62 - 1, 1<<62 - 3
	ge := func(k int64, terms ...int64) linear.Constraint {
		e := linear.ConstExpr(k)
		for v, c := range terms {
			e = e.Add(linear.VarExpr(v).Scale(c))
		}
		return linear.NewGe(e)
	}
	// a·x + 3y >= 5 and b·x <= 7y + 1 give y >= (5b - a)/(3b + 7a) ≈ 0.4.
	base := linear.System{ge(-5, a, 3), ge(1, -b, 7)}
	// On base alone only the first target is entailed.
	targets := []linear.Constraint{
		ge(0, 0, 1),   // y >= 0
		ge(-1, 0, 1),  // y >= 1
		ge(0, 1),      // x >= 0
		ge(-1, b, -a), // b·x - a·y >= 1
		linear.NewEq(linear.VarExpr(1)),
	}
	// x = 3 - 2y: substituting it doubles a, which overflows int64 already
	// during equality elimination; it pins y near 1.5 and x near 0.
	eqE := linear.VarExpr(0)
	eqE = eqE.Add(linear.VarExpr(1).Scale(2))
	eqE = eqE.Add(linear.ConstExpr(-3))
	systems := []linear.System{
		base,
		append(linear.System{ge(0, 0, -1)}, base...), // y <= 0: unsat
		append(linear.System{ge(1, 0, -1)}, base...), // y <= 1: sat
		append(linear.System{linear.NewEq(eqE)}, base...),
	}
	for i, sys := range systems {
		const n = 2
		p := polyhedra.FromSystem(sys, n)
		if fm, ch := certify.Unsat(sys, n), p.IsEmpty(); fm != ch {
			t.Errorf("system %d: Unsat=%v, polyhedra empty=%v for %s",
				i, fm, ch, certify.FormatSystem(sys, nil))
		}
		for j, c := range targets {
			if fm, ch := certify.Entails(sys, c, n), p.Entails(c); fm != ch {
				t.Errorf("system %d target %d: Entails=%v, polyhedra=%v for %s |= %s",
					i, j, fm, ch, certify.FormatSystem(sys, nil), c.String(nil))
			}
		}
	}
}
