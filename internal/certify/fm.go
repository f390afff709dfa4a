// Package certify validates the results of the abstract-interpretation
// engine a posteriori. For every check the analysis discharges it exports a
// certificate — the per-program-point invariant systems of the run that
// closed the check — and re-proves the three obligations of an inductive
// invariant (initiation, consecution along every CFG edge, and the assert
// implication) with a small self-contained Fourier–Motzkin elimination
// engine over exact integer arithmetic. The checker never calls the
// Chernikova-based polyhedra package (or any abstract domain), so a bug in
// the fixpoint engine or in the polyhedra library cannot self-certify: the
// trusted base is this package, the IP program representation, and big.Int.
//
// For reported violations the package replays the analysis counter-example
// through the deterministic directed mode of the concrete IP interpreter
// and classifies each message "witnessed" (a concrete trace reaches the
// failing assert) or "potential" (possibly imprecision).
package certify

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/linear"
)

// row is one linear constraint sum(c_i * x_i) + k >= 0 (or > 0 when
// strict) over integer coefficients. All inputs are integral, and both
// Gaussian substitution and Fourier–Motzkin combination use cross-
// multiplied integer multipliers, so the engine never needs rational
// arithmetic; rows are kept gcd-reduced to bound coefficient growth.
// Scaling a constraint by a positive rational does not change its
// solution set, so the reduction is exact over the rationals.
type row struct {
	c      []big.Int
	k      big.Int
	strict bool
	// nz lists the indices of nonzero coefficients in increasing order;
	// real constraints touch a handful of the program's variables, so the
	// engine iterates nz instead of scanning full columns. reduce()
	// (re)builds it and every constructor ends with reduce().
	nz []int
	// key caches the canonical dedup key (see sift). Rows are immutable
	// after construction apart from this idempotent cache, which keeps
	// sharing a base row set across sequential unsatRows calls safe.
	key string
}

func newRow(n int) *row {
	return &row{c: make([]big.Int, n)}
}

var intOne = big.NewInt(1)

// rowFromExpr builds expr + 0 >= 0 in dimension n, dropping nothing:
// variables beyond n are a caller bug and panic via index (Verify rejects
// a certificate naming one before building any row).
func rowFromExpr(e linear.Expr, n int, negate, strict bool) *row {
	r := newRow(n)
	for _, v := range e.Vars() {
		r.c[v].Set(e.Coef(v))
		if negate {
			r.c[v].Neg(&r.c[v])
		}
	}
	r.k.Set(e.Eval(nil)) // constant term (Eval of zero point)
	if negate {
		r.k.Neg(&r.k)
	}
	r.strict = strict
	r.reduce()
	return r
}

// isConst reports whether the row has no variable terms.
func (r *row) isConst() bool { return len(r.nz) == 0 }

// constFails reports whether a constant row is violated (k < 0, or k == 0
// for a strict row).
func (r *row) constFails() bool {
	if r.k.Sign() < 0 {
		return true
	}
	return r.strict && r.k.Sign() == 0
}

// reduce rebuilds the nonzero index list and divides the row by the gcd
// of its entries (coefficients and constant), the canonical
// representative of its positive-scaling class.
func (r *row) reduce() {
	r.nz = r.nz[:0]
	var g, a big.Int
	acc := func(x *big.Int) {
		if x.Sign() == 0 || g.Cmp(intOne) == 0 {
			return
		}
		a.Abs(x)
		if g.Sign() == 0 {
			g.Set(&a)
		} else {
			g.GCD(nil, nil, &g, &a)
		}
	}
	for i := range r.c {
		if r.c[i].Sign() != 0 {
			r.nz = append(r.nz, i)
			acc(&r.c[i])
		}
	}
	acc(&r.k)
	if g.Sign() == 0 || g.Cmp(intOne) == 0 {
		return
	}
	for _, i := range r.nz {
		r.c[i].Quo(&r.c[i], &g)
	}
	if r.k.Sign() != 0 {
		r.k.Quo(&r.k, &g)
	}
}

// elimVar returns r with variable v eliminated using the equality row e
// (e·x + e.k == 0, e.c[v] != 0): the combination |a|·r − sign(a)·m·e with
// a = e.c[v] and m = r.c[v]. The multiplier of r is positive, so the
// relation and strictness are preserved, and the result is exactly the
// substitution of e's solution for v scaled by |a| — sound and complete
// over the rationals. r is never mutated; rows with m == 0 are returned
// unchanged.
func elimVar(r, e *row, v int) *row {
	m := &r.c[v]
	if m.Sign() == 0 {
		return r
	}
	a := &e.c[v]
	var ra, t, tmp big.Int
	ra.Abs(a)
	if a.Sign() > 0 {
		t.Neg(m)
	} else {
		t.Set(m)
	}
	nr := newRow(len(r.c))
	for _, i := range r.nz {
		nr.c[i].Mul(&ra, &r.c[i])
	}
	for _, i := range e.nz {
		tmp.Mul(&t, &e.c[i])
		nr.c[i].Add(&nr.c[i], &tmp)
	}
	nr.k.Mul(&ra, &r.k)
	tmp.Mul(&t, &e.k)
	nr.k.Add(&nr.k, &tmp)
	nr.strict = r.strict
	nr.reduce()
	return nr
}

// sift drops constant rows (deciding them eagerly) and deduplicates the
// rest by coefficient vector and strictness, keeping only the tightest
// bound per direction: for identical coefficients and relation,
// c·x + k2 >= 0 implies c·x + k1 >= 0 whenever k1 >= k2, so the weaker
// rows are redundant. Input rows are never mutated.
func sift(in []*row) ([]*row, bool) {
	seen := make(map[string]int, len(in))
	out := make([]*row, 0, len(in))
	for _, r := range in {
		if r.isConst() {
			if r.constFails() {
				return nil, true
			}
			continue
		}
		key := r.dedupKey()
		if j, ok := seen[key]; ok {
			switch out[j].k.Cmp(&r.k) {
			case 1:
				out[j] = r // r is tighter (smaller constant)
			}
			continue
		}
		seen[key] = len(out)
		out = append(out, r)
	}
	return out, false
}

// dedupKey returns (and caches) the canonical key of the row's
// positive-scaling class: the gcd-reduced coefficients rendered in a
// compact binary form (sparse index, sign, raw words) plus the
// strictness marker. The constant is deliberately excluded — sift uses
// coefficient identity to subsume weaker bounds.
func (r *row) dedupKey() string {
	if r.key != "" {
		return r.key
	}
	buf := make([]byte, 0, 16*len(r.nz)+2)
	var w big.Int
	for _, i := range r.nz {
		buf = appendUvarint(buf, uint64(i))
		c := &r.c[i]
		if c.Sign() < 0 {
			buf = append(buf, '-')
		} else {
			buf = append(buf, '+')
		}
		w.Abs(c)
		mag := w.Bytes()
		buf = appendUvarint(buf, uint64(len(mag)))
		buf = append(buf, mag...)
	}
	if r.strict {
		buf = append(buf, '>')
	}
	r.key = string(buf)
	return r.key
}

func appendUvarint(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}

// maxRows bounds the working set so a pathological elimination cannot run
// away; hitting it makes the checker answer "not proven" (sound for a
// verifier: a true obligation is reported unverified, never the reverse).
const maxRows = 250000

// unsatRows decides, by Fourier–Motzkin elimination, whether the
// conjunction of inequality rows has no rational solution. It is exact:
// true is returned iff the system is infeasible over the rationals (and
// therefore over the integers). The only incompleteness is the maxRows
// cap, which returns false ("could not prove unsat"). Input rows are
// never mutated, so callers may share a base set across calls.
func unsatRows(rows []*row, n int) bool {
	rows, unsat := sift(rows)
	if unsat {
		return true
	}
	posCount := make([]int, n)
	negCount := make([]int, n)
	var a, tmp big.Int
	for {
		if len(rows) == 0 {
			return false // feasible (all constraints discharged)
		}
		// Pick the variable minimizing |pos|*|neg| products; count column
		// signs by iterating each row's nonzero list once.
		for v := range posCount {
			posCount[v], negCount[v] = 0, 0
		}
		for _, r := range rows {
			for _, v := range r.nz {
				if r.c[v].Sign() > 0 {
					posCount[v]++
				} else {
					negCount[v]++
				}
			}
		}
		best, bestCost := -1, 0
		for v := 0; v < n; v++ {
			if posCount[v] == 0 && negCount[v] == 0 {
				continue
			}
			cost := posCount[v] * negCount[v]
			if best == -1 || cost < bestCost {
				best, bestCost = v, cost
			}
		}
		if best == -1 {
			// No variable left: rows are constant (handled by sift) — the
			// system is feasible.
			return false
		}
		v := best
		var pos, neg, rest []*row
		for _, r := range rows {
			switch r.c[v].Sign() {
			case 1:
				pos = append(pos, r)
			case -1:
				neg = append(neg, r)
			default:
				rest = append(rest, r)
			}
		}
		if len(pos) == 0 || len(neg) == 0 {
			// v is unbounded on one side: every row mentioning it is
			// satisfiable independently; drop them.
			rows = rest
			continue
		}
		if len(rest)+len(pos)*len(neg) > maxRows {
			return false // give up: report unproven
		}
		out := rest
		for _, p := range pos {
			for _, q := range neg {
				// p: c_v > 0 gives a lower bound, q: c_v < 0 an upper bound.
				// Combine with positive integer multipliers to cancel v:
				//   (-q.c[v]) * p  +  (p.c[v]) * q
				a.Neg(&q.c[v]) // > 0
				b := &p.c[v]   // > 0
				nr := newRow(n)
				for _, i := range p.nz {
					nr.c[i].Mul(&a, &p.c[i])
				}
				for _, i := range q.nz {
					tmp.Mul(b, &q.c[i])
					nr.c[i].Add(&nr.c[i], &tmp)
				}
				nr.k.Mul(&a, &p.k)
				tmp.Mul(b, &q.k)
				nr.k.Add(&nr.k, &tmp)
				nr.strict = p.strict || q.strict
				nr.reduce()
				out = append(out, nr)
			}
		}
		rows, unsat = sift(out)
		if unsat {
			return true
		}
	}
}

// eqSub records one Gaussian substitution step: equality row e was used to
// eliminate variable v from every other row. Rows added later (negated
// target constraints) must replay the steps in order.
type eqSub struct {
	e *row
	v int
}

// bprep is a premise system prepared for repeated entailment checks: every
// equality has been eliminated by exact Gaussian substitution (each step
// removes one variable, so the inequality count never grows), and the
// remaining inequality rows are sifted. Preparing once and sharing the
// reduced base across all target constraints is what makes batched
// certificate checking cheap — the per-target work is one substituted row
// plus a Fourier–Motzkin run over an equality-free system.
type bprep struct {
	n     int
	rows  []*row
	subs  []eqSub
	unsat bool // the premise itself was decided infeasible during prep
}

// bPrepSystem converts sys to integer rows and eliminates its equalities.
// Substitution is exact over the rationals: S ∧ {a·v + rest = 0} is
// satisfiable iff S[v := −rest/a] is, so feasibility and entailment
// answers are unchanged.
func bPrepSystem(sys linear.System, n int) *bprep {
	p := &bprep{n: n}
	var eqs, ges []*row
	for _, c := range sys {
		r := rowFromExpr(c.E, n, false, false)
		if c.Rel == linear.Eq {
			eqs = append(eqs, r)
		} else {
			ges = append(ges, r)
		}
	}
	var a big.Int
	for len(eqs) > 0 {
		// Decide constant equalities eagerly and drop trivial ones.
		kept := eqs[:0]
		for _, e := range eqs {
			if e.isConst() {
				if e.k.Sign() != 0 {
					p.unsat = true
					return p
				}
				continue
			}
			kept = append(kept, e)
		}
		eqs = kept
		if len(eqs) == 0 {
			break
		}
		// Pick the (equality, variable) pivot with the smallest |coefficient|
		// to bound growth; a ±1 pivot substitutes without scaling.
		bi, bv := -1, -1
		var bc *big.Int
		for i, e := range eqs {
			for _, v := range e.nz {
				a.Abs(&e.c[v])
				if bc == nil || a.Cmp(bc) < 0 {
					bi, bv = i, v
					bc = new(big.Int).Set(&a)
				}
			}
			if bc != nil && bc.Cmp(intOne) == 0 {
				break
			}
		}
		e := eqs[bi]
		eqs = append(eqs[:bi], eqs[bi+1:]...)
		for i, r := range eqs {
			eqs[i] = elimVar(r, e, bv)
		}
		for i, r := range ges {
			ges[i] = elimVar(r, e, bv)
		}
		p.subs = append(p.subs, eqSub{e, bv})
	}
	p.rows, p.unsat = sift(ges)
	return p
}

// entails reports whether the prepared premise entails c over the
// rationals (see Entails for the soundness argument).
func (p *bprep) entails(c linear.Constraint) bool {
	if c.IsTautology() {
		return true
	}
	if p.unsat {
		return true
	}
	check := func(neg *row) bool {
		for _, s := range p.subs {
			neg = elimVar(neg, s.e, s.v)
		}
		if neg.isConst() {
			if neg.constFails() {
				return true
			}
			// The negation holds identically under the substitutions: the
			// conjunction is unsat only if the premise itself is.
			return unsatRows(p.rows, p.n)
		}
		rows := make([]*row, len(p.rows)+1)
		copy(rows, p.rows)
		rows[len(p.rows)] = neg
		return unsatRows(rows, p.n)
	}
	switch c.Rel {
	case linear.Eq:
		// sys |= e == 0  iff  sys ∧ e > 0 unsat  and  sys ∧ -e > 0 unsat.
		return check(rowFromExpr(c.E, p.n, true, true)) &&
			check(rowFromExpr(c.E, p.n, false, true))
	default:
		// sys |= e >= 0  iff  sys ∧ -e > 0 unsat.
		return check(rowFromExpr(c.E, p.n, true, true))
	}
}

// Unsat reports whether the conjunction of constraints has no rational
// solution (which implies it has no integer solution either).
func Unsat(sys linear.System, n int) bool {
	p := bPrepSystem(sys, n)
	return p.unsat || unsatRows(p.rows, p.n)
}

// Entails reports whether every rational point satisfying sys satisfies c:
// sys ∧ ¬c is infeasible, with the negation taken over the rationals
// (e >= 0 negates to the strict -e > 0, e == 0 to either strict side).
// Entailment over the rationals implies entailment over the integers, so a
// "true" answer is sound for the integer IP semantics.
func Entails(sys linear.System, c linear.Constraint, n int) bool {
	return bPrepSystem(sys, n).entails(c)
}

// FirstUnentailed returns the first constraint of target that sys does not
// entail, for error reporting; ok is false when every constraint is
// entailed.
func FirstUnentailed(sys, target linear.System, n int) (linear.Constraint, bool) {
	p := bPrepSystem(sys, n)
	for _, c := range target {
		if !p.entails(c) {
			return c, true
		}
	}
	return linear.Constraint{}, false
}

// maxVar returns the largest variable index mentioned by the system.
func maxVar(sys linear.System) int {
	m := -1
	for _, c := range sys {
		for _, v := range c.E.Vars() {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// FormatSystem renders a system with positional variable names, a debugging
// helper for verification failures.
func FormatSystem(sys linear.System, names []string) string {
	sp := linear.NewSpace()
	for _, n := range names {
		sp.Var(n)
	}
	need := maxVar(sys)
	for sp.Dim() <= need {
		sp.Var(fmt.Sprintf("v%d", sp.Dim()))
	}
	return sys.String(sp)
}

// sortedNames returns the keys of m in sorted order (tiny helper shared by
// the replay code).
func sortedNames[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
