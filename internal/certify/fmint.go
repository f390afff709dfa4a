// The int64 engine of the certificate checker: Fourier–Motzkin over
// machine integers with checked arithmetic, mirroring the big.Int engine in
// fm.go. Every operation that could wrap panics with the fmOverflow
// sentinel; int64Only (compiled.go) recovers it, and the obligation is
// redone on the big.Int reference path — the same promote-on-overflow
// discipline as the numeric substrate kernel (DESIGN.md §6), applied to the
// checker. Both engines use the same equality pivots, sift, elimination
// order and maxRows cap. Only this engine has the premise-subsumption
// shortcut (iprep.subsumes), which answers "entailed" only when a premise
// row implies the target outright, so the engines can disagree only where
// the big engine gives up at maxRows on an entailment the shortcut proves.
// TestEnginesAgree holds both to identical answers on a seeded corpus.
package certify

import (
	"math"

	"repro/internal/linear"
)

// fmOverflow is the panic sentinel raised by checked int64 arithmetic.
type fmOverflow struct{}

func iAdd(a, b int64) int64 {
	r := a + b
	if (b > 0 && r < a) || (b < 0 && r > a) {
		panic(fmOverflow{})
	}
	return r
}

func iMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		panic(fmOverflow{})
	}
	r := a * b
	if r/b != a {
		panic(fmOverflow{})
	}
	return r
}

func iAbs(a int64) int64 {
	if a == math.MinInt64 {
		panic(fmOverflow{})
	}
	if a < 0 {
		return -a
	}
	return a
}

// igcd returns gcd(a, b) for non-negative inputs (gcd(x, 0) = x).
func igcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// irow mirrors row over int64 coefficients; see fm.go for field semantics.
type irow struct {
	c      []int64
	k      int64
	strict bool
	nz     []int32
	key    string
}

func newIRow(n int) *irow {
	return &irow{c: make([]int64, n)}
}

// iRowFromExpr builds the reduced row of e >= 0 in dimension n from vs,
// e's variables (e.Vars()), every one of which the caller has checked to
// be in [0, n). It panics fmOverflow when a coefficient does not fit in
// int64.
func iRowFromExpr(e linear.Expr, vs []int, n int) *irow {
	r := newIRow(n)
	for _, v := range vs {
		c := e.Coef(v)
		if !c.IsInt64() {
			panic(fmOverflow{})
		}
		r.c[v] = c.Int64()
	}
	k := e.Const()
	if !k.IsInt64() {
		panic(fmOverflow{})
	}
	r.k = k.Int64()
	r.reduce()
	return r
}

func (r *irow) isConst() bool { return len(r.nz) == 0 }

func (r *irow) constFails() bool {
	if r.k < 0 {
		return true
	}
	return r.strict && r.k == 0
}

// reduce rebuilds nz and divides the row by the gcd of its entries.
func (r *irow) reduce() {
	r.nz = r.nz[:0]
	var g int64
	for i, c := range r.c {
		if c != 0 {
			r.nz = append(r.nz, int32(i))
			if g != 1 {
				g = igcd(g, iAbs(c))
			}
		}
	}
	if r.k != 0 && g != 1 && g != 0 {
		g = igcd(g, iAbs(r.k))
	}
	if g == 0 || g == 1 {
		return
	}
	for _, i := range r.nz {
		r.c[i] /= g
	}
	r.k /= g
}

// iElimVar mirrors elimVar: eliminate v from r using equality row e.
func iElimVar(r, e *irow, v int) *irow {
	m := r.c[v]
	if m == 0 {
		return r
	}
	a := e.c[v]
	ra := iAbs(a)
	t := iAbs(m)
	if (a > 0) == (m > 0) {
		t = -t
	}
	nr := newIRow(len(r.c))
	for _, i := range r.nz {
		nr.c[i] = iMul(ra, r.c[i])
	}
	for _, i := range e.nz {
		nr.c[i] = iAdd(nr.c[i], iMul(t, e.c[i]))
	}
	nr.k = iAdd(iMul(ra, r.k), iMul(t, e.k))
	nr.strict = r.strict
	nr.reduce()
	return nr
}

// dedupKey mirrors row.dedupKey with a zigzag-varint rendering.
func (r *irow) dedupKey() string {
	if r.key != "" {
		return r.key
	}
	buf := make([]byte, 0, 6*len(r.nz)+2)
	for _, i := range r.nz {
		buf = appendUvarint(buf, uint64(i))
		c := r.c[i]
		buf = appendUvarint(buf, uint64(c<<1)^uint64(c>>63)) // zigzag
	}
	if r.strict {
		buf = append(buf, '>')
	}
	r.key = string(buf)
	return r.key
}

// iSift mirrors sift: drop and decide constant rows, subsume by
// coefficient vector and strictness keeping the tightest constant.
func iSift(in []*irow) ([]*irow, bool) {
	seen := make(map[string]int, len(in))
	out := make([]*irow, 0, len(in))
	for _, r := range in {
		if r.isConst() {
			if r.constFails() {
				return nil, true
			}
			continue
		}
		key := r.dedupKey()
		if j, ok := seen[key]; ok {
			if out[j].k > r.k {
				out[j] = r // r is tighter (smaller constant)
			}
			continue
		}
		seen[key] = len(out)
		out = append(out, r)
	}
	return out, false
}

// iUnsatRows mirrors unsatRows over int64 rows: same pivot heuristic, same
// maxRows cap, identical answers.
func iUnsatRows(rows []*irow, n int) bool {
	rows, unsat := iSift(rows)
	if unsat {
		return true
	}
	posCount := make([]int, n)
	negCount := make([]int, n)
	for {
		if len(rows) == 0 {
			return false
		}
		for v := range posCount {
			posCount[v], negCount[v] = 0, 0
		}
		for _, r := range rows {
			for _, v := range r.nz {
				if r.c[v] > 0 {
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
			return false
		}
		v := best
		var pos, neg, rest []*irow
		for _, r := range rows {
			switch {
			case r.c[v] > 0:
				pos = append(pos, r)
			case r.c[v] < 0:
				neg = append(neg, r)
			default:
				rest = append(rest, r)
			}
		}
		if len(pos) == 0 || len(neg) == 0 {
			rows = rest
			continue
		}
		if len(rest)+len(pos)*len(neg) > maxRows {
			return false
		}
		out := rest
		for _, p := range pos {
			for _, q := range neg {
				a := iAbs(q.c[v]) // = -q.c[v] > 0
				b := p.c[v]       // > 0
				nr := newIRow(n)
				for _, i := range p.nz {
					nr.c[i] = iMul(a, p.c[i])
				}
				for _, i := range q.nz {
					nr.c[i] = iAdd(nr.c[i], iMul(b, q.c[i]))
				}
				nr.k = iAdd(iMul(a, p.k), iMul(b, q.k))
				nr.strict = p.strict || q.strict
				nr.reduce()
				out = append(out, nr)
			}
		}
		rows, unsat = iSift(out)
		if unsat {
			return true
		}
	}
}

type iEqSub struct {
	e *irow
	v int
}

// iprep mirrors the big-engine premise preparation.
type iprep struct {
	n     int
	rows  []*irow
	subs  []iEqSub
	unsat bool
	// minK is the subsumption index over rows: the tightest (smallest)
	// constant per non-strict coefficient key, built on first use. A
	// target row with the same coefficients and a constant >= the indexed
	// one is entailed outright — the common case for consecution
	// obligations, where the successor invariant repeats premise
	// constraints verbatim — skipping Fourier–Motzkin entirely.
	minK map[string]int64
}

// subsumes reports whether a non-strict target row is directly implied by
// a single premise row with identical coefficients: c·x + kp >= 0 entails
// c·x + kt >= 0 whenever kt >= kp. A false answer decides nothing.
func (p *iprep) subsumes(rt *irow) bool {
	if p.minK == nil {
		p.minK = make(map[string]int64, len(p.rows))
		for _, r := range p.rows {
			if r.strict {
				continue
			}
			k := r.dedupKey()
			if old, ok := p.minK[k]; !ok || r.k < old {
				p.minK[k] = r.k
			}
		}
	}
	kp, ok := p.minK[rt.dedupKey()]
	return ok && kp <= rt.k
}

// negated returns the row of the negated hyperplane (-c, -k), non-strict.
func (r *irow) negated() *irow {
	nr := newIRow(len(r.c))
	for _, i := range r.nz {
		nr.c[i] = iNeg(r.c[i])
	}
	nr.k = iNeg(r.k)
	nr.reduce()
	return nr
}

func iNeg(a int64) int64 {
	if a == math.MinInt64 {
		panic(fmOverflow{})
	}
	return -a
}

// iPrepRows prepares a premise given as its equality and inequality rows,
// each list in constraint order. The rows themselves are never mutated, so
// they may be shared with other premises; the two slices are reused.
func iPrepRows(eqs, ges []*irow, n int) *iprep {
	p := &iprep{n: n}
	for len(eqs) > 0 {
		kept := eqs[:0]
		for _, e := range eqs {
			if e.isConst() {
				if e.k != 0 {
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
		bi, bv := -1, -1
		var bc int64
		for i, e := range eqs {
			for _, v := range e.nz {
				a := iAbs(e.c[v])
				if bi == -1 || a < bc {
					bi, bv = i, int(v)
					bc = a
				}
			}
			if bc == 1 {
				break
			}
		}
		e := eqs[bi]
		eqs = append(eqs[:bi], eqs[bi+1:]...)
		for i, r := range eqs {
			eqs[i] = iElimVar(r, e, bv)
		}
		for i, r := range ges {
			ges[i] = iElimVar(r, e, bv)
		}
		p.subs = append(p.subs, iEqSub{e, bv})
	}
	p.rows, p.unsat = iSift(ges)
	return p
}

// entailsRow decides entailment of the target whose expression row is r
// (reduced and non-strict, as iRowFromExpr builds it): r == 0 when eq,
// r >= 0 otherwise. A constant target is decided by the row alone, so no
// separate tautology test is needed. r is not mutated.
func (p *iprep) entailsRow(r *irow, eq bool) bool {
	if p.unsat {
		return true
	}
	check := func(neg *irow) bool {
		for _, s := range p.subs {
			neg = iElimVar(neg, s.e, s.v)
		}
		if neg.isConst() {
			if neg.constFails() {
				return true
			}
			return iUnsatRows(p.rows, p.n)
		}
		rows := make([]*irow, len(p.rows)+1)
		copy(rows, p.rows)
		rows[len(p.rows)] = neg
		return iUnsatRows(rows, p.n)
	}
	// Subsumption shortcut: substitute the target itself and look it up in
	// the premise index; a hit proves entailment without elimination. A
	// miss falls through to the exact check.
	rt := r
	for _, s := range p.subs {
		rt = iElimVar(rt, s.e, s.v)
	}
	if eq {
		if rt.isConst() {
			if rt.k == 0 {
				return true
			}
		} else if p.subsumes(rt) && p.subsumes(rt.negated()) {
			return true
		}
		return check(r.negated().asStrict()) && check(r.clone().asStrict())
	}
	if rt.isConst() {
		if !rt.constFails() {
			return true
		}
	} else if p.subsumes(rt) {
		return true
	}
	return check(r.negated().asStrict())
}

// clone returns a copy of r without its cached dedup key.
func (r *irow) clone() *irow {
	return &irow{
		c:      append([]int64(nil), r.c...),
		k:      r.k,
		strict: r.strict,
		nz:     append([]int32(nil), r.nz...),
	}
}

// asStrict marks a freshly built row strict (before its dedup key is
// cached) and returns it.
func (r *irow) asStrict() *irow {
	r.strict = true
	return r
}
