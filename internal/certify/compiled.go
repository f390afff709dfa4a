package certify

import (
	"fmt"

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
// redoes that one obligation on the big.Int reference path
// (FirstUnentailed and Unsat over the linear systems). Both engines are
// exact, so the two paths give the same answer and the same first
// unentailed constraint; TestCompiledCheckerMatchesReference holds them to
// it.
type carrierRows struct {
	n int
	// pts[i] compiles Inv[i] constraint by constraint; nil when Inv[i] has
	// a coefficient beyond int64.
	pts [][]crow
}

// crow is one compiled constraint: the reduced non-strict row of its
// expression, and whether it is an equality.
type crow struct {
	r  *irow
	eq bool
}

// compileCarrier checks the certificate's shape and compiles its invariant
// map, reading each invariant expression once. Every variable the carrier's statements and invariants
// name must be one of its own, in [0, nv): both engines build rows of a
// fixed dimension and index them by variable, so a certificate naming any
// other index is malformed and rejected here, before any obligation runs.
// The rows are nil for an unreachability certificate, which has no
// invariant map.
func compileCarrier(cert *Certificate) (*carrierRows, error) {
	nv := cert.Prog.NumVars()
	for i, s := range cert.Prog.Stmts {
		if v, bad := stmtOutside(s, nv); bad {
			return nil, fmt.Errorf("certify: statement %d names variable %d, carrier has %d", i, v, nv)
		}
	}
	if cert.Unreachable {
		return nil, nil
	}
	cr := &carrierRows{n: nv + 1, pts: make([][]crow, len(cert.Inv))}
	for i, sys := range cert.Inv {
		rows := make([]crow, len(sys))
		fits := true
		for j, c := range sys {
			vs := c.E.Vars()
			if v, bad := outside(vs, nv); bad {
				return nil, fmt.Errorf("certify: invariant at %d names variable %d, carrier has %d", i, v, nv)
			}
			fits = fits && int64Only(func() {
				rows[j] = crow{iRowFromExpr(c.E, vs, cr.n), c.Rel == linear.Eq}
			})
		}
		if fits {
			cr.pts[i] = rows
		}
	}
	return cr, nil
}

// outside returns a variable of the sorted list vs that lies outside
// [0, nv), if any.
func outside(vs []int, nv int) (int, bool) {
	switch {
	case len(vs) == 0:
		return 0, false
	case vs[0] < 0:
		return vs[0], true
	case vs[len(vs)-1] >= nv:
		return vs[len(vs)-1], true
	}
	return 0, false
}

// stmtOutside returns a variable that s assigns or whose expressions and
// conditions name outside [0, nv), if any.
func stmtOutside(s ip.Stmt, nv int) (int, bool) {
	switch s := s.(type) {
	case *ip.Assign:
		if s.V < 0 || s.V >= nv {
			return s.V, true
		}
		return outside(s.E.Vars(), nv)
	case *ip.Havoc:
		return s.V, s.V < 0 || s.V >= nv
	case *ip.Assume:
		return dnfOutside(s.C, nv)
	case *ip.Assert:
		return dnfOutside(s.C, nv)
	case *ip.IfGoto:
		if v, bad := dnfOutside(s.C, nv); bad {
			return v, true
		}
		return dnfOutside(s.FalseC, nv)
	}
	return 0, false
}

// dnfOutside is stmtOutside for one condition.
func dnfOutside(d ip.DNF, nv int) (int, bool) {
	for _, conj := range d {
		for _, c := range conj {
			if v, bad := outside(c.E.Vars(), nv); bad {
				return v, true
			}
		}
	}
	return 0, false
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
// and inequalities apart, as bPrepSystem splits them.
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
		p.add(iRowFromExpr(c.E, c.E.Vars(), n), c.Rel == linear.Eq)
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
			extraRows = append(extraRows, iRowFromExpr(c.E, c.E.Vars(), cr.n))
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
