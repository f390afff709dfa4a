package polyhedra

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/linear"
)

// ---------------------------------------------------------------------------
// cone.add keeps no duplicate-ray pass: under its invariants (lines
// orthogonal to every row added, a minimal ray set with exact saturation
// bits) no Chernikova step can make two equal rays (DESIGN §6.1). This
// oracle holds every kind of conversion to that, independently of the
// kernel: the rays a conversion ends with, and the rays of every step of a
// cone driven row by row, must be pairwise distinct by value and saturate
// pairwise distinct sets of constraints. A conversion must also describe
// the same cone as the conversion of its rows in reverse order.

// rayStats counts what the oracle checked.
type rayStats struct {
	gens, continued, duals, steps, reversed, dropped int
}

// satVec is a ray with the set of constraints it saturates.
type satVec struct {
	v   vec
	sat bitset
}

// distinctRays fails if two of rays are equal by value or saturate the
// same constraints.
func distinctRays(t *testing.T, what string, rays []satVec) {
	t.Helper()
	for i := range rays {
		for j := i + 1; j < len(rays); j++ {
			if rays[i].v.equal(rays[j].v) {
				t.Fatalf("%s: rays %d and %d are both %s", what, i, j, vecState(rays[i].v))
			}
			if rays[i].sat.subsetOf(rays[j].sat) && rays[j].sat.subsetOf(rays[i].sat) {
				t.Fatalf("%s: rays %d (%s) and %d (%s) saturate the same constraints %x",
					what, i, vecState(rays[i].v), j, vecState(rays[j].v), []uint64(rays[i].sat))
			}
		}
	}
}

// gensetRays pairs a converted genset's rays with their saturation sets.
func gensetRays(g *genset) []satVec {
	rays := make([]satVec, len(g.rays))
	for i := range g.rays {
		rays[i] = satVec{v: g.rays[i], sat: g.satOf(i)}
	}
	return rays
}

// coneRays pairs a cone's rays with their saturation sets, as views of
// its storage.
func coneRays(c *cone) []satVec {
	rays := make([]satVec, len(c.rays))
	for i, r := range c.rays {
		rays[i] = satVec{v: c.vec(r.v), sat: c.sat(r.sat)}
	}
	return rays
}

// checkDual converts gs to constraints and checks the dual cone's rays,
// which become the rows.
func checkDual(t *testing.T, what string, n int, cfg *Config, st *rayStats, gs ...*genset) {
	t.Helper()
	dual := dualOf(n, cfg, gs...)
	distinctRays(t, what+": dual", coneRays(dual))
	dual.recycle()
	st.duals++
}

// sameCone fails unless g and h generate the same cone: each one's
// constraints hold on the other's generators.
func sameCone(t *testing.T, what string, n int, cfg *Config, g, h *genset) {
	t.Helper()
	for _, pair := range [][2]*genset{{g, h}, {h, g}} {
		for _, r := range consOf(n, cfg, pair[0]) {
			if !rowHoldsGens(r, pair[1]) {
				t.Fatalf("%s: the conversions in both orders differ:\n%s\nreversed:\n%s", what, genState(g), genState(h))
			}
		}
	}
}

// checkConversions converts rows from scratch, in reverse order, and as a
// continuation at every split gensOf's equalities-first order allows, and
// checks each result and the dual conversion of its generators.
func checkConversions(t *testing.T, what string, rows []row, n int, cfg *Config, st *rayStats) {
	t.Helper()
	g := gensOf(rows, n, cfg)
	distinctRays(t, what, gensetRays(g))
	checkDual(t, what, n, cfg, st, g)
	st.gens++
	reversed := slices.Clone(rows)
	slices.Reverse(reversed)
	rev := gensOf(reversed, n, cfg)
	distinctRays(t, what+" reversed", gensetRays(rev))
	st.gens++
	if g.dropped == 0 && rev.dropped == 0 {
		sameCone(t, what, n, cfg, g, rev)
		st.reversed++
	} else {
		st.dropped++
	}
	for k := 1; k < len(rows); k++ {
		head, tail := rows[:k], rows[k:]
		if slices.ContainsFunc(tail, func(r row) bool { return r.eq }) && slices.ContainsFunc(head, func(r row) bool { return !r.eq }) {
			continue // gensOf would add tail's equalities before head's inequalities
		}
		base := gensOf(head, n, cfg)
		if !base.hasVertex() {
			continue // an empty polyhedron is never continued
		}
		c := continueGens(base, tail, n, cfg)
		distinctRays(t, fmt.Sprintf("%s continued after %d rows", what, k), gensetRays(c))
		st.continued++
	}
}

// checkPoly checks the conversions of a polyhedron a script built: the
// conversion it holds, those of its rows, and the dual conversion of its
// generators, alone and next to prev's as a join makes it.
func checkPoly(t *testing.T, what string, p, prev *Poly, st *rayStats) {
	t.Helper()
	if p.empty {
		return
	}
	if p.gens != nil && p.gens.sat != nil {
		distinctRays(t, what+": held", gensetRays(p.gens))
	}
	if p.cons != nil {
		checkConversions(t, what, p.cons, p.n, p.cfg, st)
	}
	if p.gens != nil {
		checkDual(t, what, p.n, p.cfg, st, p.gens)
		if prev != nil && !prev.empty && prev.gens != nil {
			checkDual(t, what+" joined", p.n, p.cfg, st, prev.gens, p.gens)
		}
	}
}

// randomRows draws a system over n variables whose equalities follow its
// inequalities, with some rows repeated verbatim or as a multiple.
func randomRows(rng *rand.Rand, n int) []row {
	var ineqs, eqs []row
	for k, m := 0, 2+rng.Intn(7); k < m; k++ {
		var r row
		all := append(ineqs[:len(ineqs):len(ineqs)], eqs...)
		if len(all) > 0 && rng.Intn(4) == 0 {
			r = all[rng.Intn(len(all))]
			if rng.Intn(2) == 0 {
				c := rowToConstraint(r, n)
				r = rowOf(linear.Constraint{E: c.E.Scale(2), Rel: c.Rel}, n, nil)
			}
		} else {
			e := linear.ConstExpr(int64(rng.Intn(13) - 6))
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					e = e.Add(linear.VarExpr(v).Scale(int64(rng.Intn(7) - 3)))
				}
			}
			c := linear.NewGe(e)
			if rng.Intn(4) == 0 {
				c = linear.NewEq(e)
			}
			r = rowOf(c, n, nil)
		}
		if r.eq {
			eqs = append(eqs, r)
		} else {
			ineqs = append(ineqs, r)
		}
	}
	return append(ineqs, eqs...)
}

func TestConversionsMakeNoDuplicateRays(t *testing.T) {
	var st rayStats
	polys := func(what string, ps []*Poly) {
		for i, p := range ps {
			var prev *Poly
			if i > 0 {
				prev = ps[i-1]
			}
			checkPoly(t, fmt.Sprintf("%s, polyhedron %d", what, i), p, prev, &st)
		}
	}
	for i, data := range hybridSeeds() {
		_, ps := runHybridScript(data, &Config{Arena: arena.New()})
		polys(fmt.Sprintf("FuzzHybridOps seed %d", i), ps)
	}
	for i, data := range continuationSeeds() {
		_, _, ps := continuationScript(t, data, false)
		polys(fmt.Sprintf("FuzzContinuedConversion seed %d", i), ps)
	}

	// The sweep also drives a cone row by row in the given order, so that
	// equalities reach it after inequalities, and checks every step.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(4)
		rows := randomRows(rng, n)
		cfg := &Config{MaxRays: -1}
		if trial%2 == 1 {
			cfg.MaxRays = 1 + rng.Intn(6)
		}
		what := fmt.Sprintf("trial %d, ray cap %d", trial, cfg.MaxRays)
		checkConversions(t, what, rows, n, cfg, &st)
		c := universePolyCone(n, len(rows), cfg.maxRays(), false, nil)
		for k, r := range rows {
			c.add(r)
			distinctRays(t, fmt.Sprintf("%s, step %d", what, k), coneRays(c))
			st.steps++
		}
		c.recycle()
	}
	t.Logf("%+v", st)
	for what, c := range map[string]int{
		"conversion from scratch": st.gens, "continued conversion": st.continued, "dual conversion": st.duals,
		"comparison with the reverse order": st.reversed, "conversion with ray-cap drops": st.dropped,
	} {
		if c == 0 {
			t.Errorf("the oracle checked no %s", what)
		}
	}
}
