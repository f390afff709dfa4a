package certify

import (
	"repro/internal/ip"
	"repro/internal/linear"
)

// carrierRows is a carrier's invariant map lowered to int64 rows once, at
// dimension nv+1: column nv is the primed variable that assignments and
// havocs introduce. VerifyAll builds one per shared (Prog, Inv) group, and
// every initiation, consecution and implication obligation of the group
// takes its premise and target rows from here instead of converting the
// same linear.Exprs again for every edge. The extra column changes no
// answer: a variable no row mentions is never a pivot.
//
// The compiled checks run on the int64 engine only. Whenever one cannot —
// a point whose coefficients do not fit int64, or checked arithmetic
// overflowing anywhere in the obligation — it reports !ok, and the caller
// redoes that one obligation on the reference path (FirstUnentailed and
// Unsat over the linear systems), which promotes to the big.Int engine on
// overflow exactly as before. Both paths therefore give the same answer
// and the same first unentailed constraint; TestCompiledCheckerMatchesReference
// holds them to it.
type carrierRows struct {
	n int
	// pts[i] compiles Inv[i] constraint by constraint; nil when Inv[i] has
	// a coefficient beyond int64 or mentions column nv itself.
	pts [][]crow
}

// crow is one compiled constraint: the reduced non-strict row of its
// expression, and whether it is an equality.
type crow struct {
	r  *irow
	eq bool
}

// compileCarrier compiles a certificate's invariant map; nil when the
// certificate has no invariant obligations to share.
func compileCarrier(cert *Certificate) *carrierRows {
	if cert.Prog == nil || cert.Unreachable || len(cert.Inv) == 0 {
		return nil
	}
	cr := &carrierRows{n: cert.Prog.NumVars() + 1, pts: make([][]crow, len(cert.Inv))}
	for i, sys := range cert.Inv {
		rows := make([]crow, len(sys))
		if int64Only(func() {
			for j, c := range sys {
				rows[j] = crow{compileRow(c, cr.n), c.Rel == linear.Eq}
			}
		}) {
			cr.pts[i] = rows
		}
	}
	return cr
}

// compileRow lowers a constraint over the carrier's own variables. A
// constraint that already mentions the primed column is left to the
// reference path (reported like an overflow), which treats it as before.
func compileRow(c linear.Constraint, n int) *irow {
	r := iRowFromExpr(c.E, n, false, false)
	if r.c[n-1] != 0 {
		panic(fmOverflow{})
	}
	return r
}

// int64Only runs f, reporting false when it left the int64 engine by an
// fmOverflow panic; any other panic propagates.
func int64Only(f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isOverflow := r.(fmOverflow); !isOverflow {
				panic(r)
			}
			ok = false
		}
	}()
	f()
	return true
}

// premise collects the rows of a premise in constraint order, equalities
// and inequalities apart, as iPrepSystem would split them.
type premise struct {
	eqs, ges []*irow
}

func (p *premise) addRows(rows []crow) {
	for _, c := range rows {
		p.add(c.r, c.eq)
	}
}

func (p *premise) add(r *irow, eq bool) {
	if eq {
		p.eqs = append(p.eqs, r)
	} else {
		p.ges = append(p.ges, r)
	}
}

func (p *premise) addSystem(sys []linear.Constraint, n int) {
	for _, c := range sys {
		p.add(compileRow(c, n), c.Rel == linear.Eq)
	}
}

// firstUnentailed returns the index of the first target the premise does
// not entail, or -1.
func (p premise) firstUnentailed(targets []crow, n int) int {
	prep := iPrepRows(p.eqs, p.ges, n)
	for j, t := range targets {
		if !prep.entailsRow(t.r, t.eq) {
			return j
		}
	}
	return -1
}

// initiation reports the index of the first entry-invariant constraint
// that is not trivially true (-1 when all are); ok is false when the
// reference path must decide.
func (cr *carrierRows) initiation() (bad int, ok bool) {
	if cr.pts[0] == nil {
		return 0, false
	}
	ok = int64Only(func() { bad = premise{}.firstUnentailed(cr.pts[0], cr.n) })
	return bad, ok
}

// edge decides the consecution obligation of one CFG edge, as
// Certificate.checkEdge does, from the compiled rows and the statement's
// decomposition (transfer). It returns the index of the first
// successor-invariant constraint some premise of the edge does not entail
// (-1 when the edge is consecutive); ok is false when the reference path
// must decide.
func (cr *carrierRows) edge(primed int, extra linear.System, transferDisjuncts ip.DNF, i int, e ip.Edge) (bad int, ok bool) {
	pre, post := cr.pts[i], cr.pts[e.To]
	if pre == nil || post == nil {
		return 0, false
	}
	ok = int64Only(func() {
		bad = -1
		// The equation x' = e is the one premise row that mentions the
		// primed column, so it is lowered directly.
		var extraRows []*irow
		for _, c := range extra {
			extraRows = append(extraRows, iRowFromExpr(c.E, cr.n, false, false))
		}
		// Renaming the overwritten variable to its primed copy moves one
		// column of each successor row; the gcd, and so the reduced form,
		// is unchanged.
		targets := post
		if primed >= 0 {
			nv := cr.n - 1
			targets = make([]crow, len(post))
			for j, c := range post {
				r := c.r
				if r.c[primed] != 0 {
					r = r.clone()
					r.c[nv], r.c[primed] = r.c[primed], 0
					r.reduce()
				}
				targets[j] = crow{r, c.eq}
			}
		}
		for _, td := range transferDisjuncts {
			for _, ed := range normDNF(e.Cond) {
				var pm premise
				pm.addRows(pre)
				for _, r := range extraRows {
					pm.add(r, true)
				}
				pm.addSystem(td, cr.n)
				pm.addSystem(ed, cr.n)
				if bad = pm.firstUnentailed(targets, cr.n); bad >= 0 {
					return
				}
			}
		}
	})
	return bad, ok
}

// excludes mirrors the implication check of Certificate.verifyAssert on
// the compiled rows: whether the invariant at the assert is infeasible
// together with every disjunct of the negated condition. ok is false when
// the reference path must decide.
func (cr *carrierRows) excludes(idx int, negated ip.DNF) (excluded, ok bool) {
	inv := cr.pts[idx]
	if inv == nil {
		return false, false
	}
	ok = int64Only(func() {
		excluded = true
		for _, nd := range negated {
			var pm premise
			pm.addRows(inv)
			pm.addSystem(nd, cr.n)
			p := iPrepRows(pm.eqs, pm.ges, cr.n)
			if !p.unsat && !iUnsatRows(p.rows, cr.n) {
				excluded = false
				return
			}
		}
	})
	return excluded, ok
}
