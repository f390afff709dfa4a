package polyhedra

import (
	"math/big"
	"slices"
	"strings"

	"repro/internal/linear"
	"repro/internal/numkernel"
)

// DefaultMaxRays caps intermediate generator counts during conversion;
// exceeding it drops constraints (a sound over-approximation). Per-run
// overrides go through Config.MaxRays.
const DefaultMaxRays = 100000

// Poly is a convex polyhedron over n integer-valued variables. The zero
// value is not meaningful; use Universe, Bottom or FromSystem.
//
// Both representations are maintained lazily: cons from gens and gens from
// cons via Chernikova conversion. All operations are sound
// over-approximations of their concrete counterparts.
//
// A vector a Poly holds, as a row or a generator, is never written,
// released or copied: operations share their operands' rows and generators
// and allocate storage only for the values they compute (DESIGN §9.2).
type Poly struct {
	n     int
	empty bool
	cons  []row   // nil when unknown
	gens  *genset // nil when unknown
	// converted records that gens is the conversion of exactly cons, so
	// that a meet appending rows may continue it.
	converted bool
	// base, when non-nil, is a genset whose conversion ensureGens
	// continues: cons[:base.nrows] are the rows it converted.
	base *genset
	// minimized records that cons came from a dual conversion (and is
	// therefore irredundant).
	minimized bool
	// cfg carries per-run knobs (ray cap, budget token, kernel tier);
	// nil means defaults. Operations propagate it to their results.
	cfg *Config
}

// Universe returns the unconstrained polyhedron over n variables with
// default configuration.
func Universe(n int) *Poly {
	return (*Config)(nil).Universe(n)
}

// Bottom returns the empty polyhedron over n variables with default
// configuration.
func Bottom(n int) *Poly {
	return (*Config)(nil).Bottom(n)
}

// cfgOr returns the receiver's Config, falling back to q's when unset, so
// binary operations preserve governance even when one operand carries the
// default configuration.
func (p *Poly) cfgOr(q *Poly) *Config {
	if p.cfg != nil {
		return p.cfg
	}
	return q.cfg
}

// Dim returns the number of variables.
func (p *Poly) Dim() int { return p.n }

// rowOf converts a linear.Constraint to a dense row governed by cfg.
func rowOf(c linear.Constraint, n int, cfg *Config) row {
	return fillRow(c, n, newVec(n+1, cfg.pure()))
}

// fillRow writes c into v, a zero vector of length n+1, as a row.
func fillRow(c linear.Constraint, n int, v vec) row {
	v.setBig(0, c.E.Const())
	for _, i := range c.E.Vars() {
		if i < n {
			v.setBig(i+1, c.E.Coef(i))
		}
	}
	return row{v: v, eq: c.Rel == linear.Eq}
}

// rowToConstraint converts a dense row back to a linear.Constraint.
func rowToConstraint(r row, n int) linear.Constraint {
	terms := make([]linear.Term, 0, 4)
	for i := 1; i <= n; i++ {
		if r.v.sign(i) != 0 {
			terms = append(terms, linear.Term{V: i - 1, K: r.v.bigAt(i)})
		}
	}
	rel := linear.Ge
	if r.eq {
		rel = linear.Eq
	}
	return linear.Constraint{E: linear.NewExpr(r.v.bigAt(0), terms...), Rel: rel}
}

// FromSystem returns the polyhedron of the conjunction sys over n
// variables with default configuration.
func FromSystem(sys linear.System, n int) *Poly {
	return (*Config)(nil).FromSystem(sys, n)
}

// ensureGens computes the generator representation: it continues base's
// conversion with the rows after base's when there is a base, and
// converts every row otherwise.
func (p *Poly) ensureGens() {
	if p.empty || p.gens != nil {
		return
	}
	var g *genset
	if p.base != nil {
		g = continueGens(p.base, p.cons[p.base.nrows:], p.n, p.cfg)
		p.base = nil
	} else {
		g = gensOf(p.cons, p.n, p.cfg)
	}
	// A continued conversion's count includes its base's, so it is the
	// count a conversion of every row reports.
	p.cfg.noteDropped(g.dropped)
	if !g.hasVertex() {
		p.empty = true
		// An empty polyhedron never consults either representation again.
		// The rows may be shared with another live Poly, so both are
		// dropped, not written.
		p.gens = nil
		p.cons = nil
		return
	}
	p.gens, p.converted = g, true
}

// ensureCons computes the (minimized) constraint representation.
func (p *Poly) ensureCons() {
	if p.empty || p.cons != nil {
		return
	}
	p.cons = consOf(p.n, p.cfg, p.gens)
	p.minimized, p.converted = true, false
}

// IsEmpty reports whether the polyhedron contains no points.
func (p *Poly) IsEmpty() bool {
	if p.empty {
		return true
	}
	p.ensureGens()
	return p.empty
}

// IsUniverse reports whether the polyhedron is unconstrained.
func (p *Poly) IsUniverse() bool {
	if p.IsEmpty() {
		return false
	}
	p.ensureCons()
	return len(p.cons) == 0
}

// share returns a new Poly over p's representation: the rows and the
// generator set are shared, not copied, and by the ownership rule neither
// side can disturb the other.
func (p *Poly) share() *Poly {
	c := *p
	return &c
}

// Key returns a canonical byte-string encoding of p's current constraint
// representation and whether one is available without further conversion
// work. Keys are value-based and tier-independent: equal keys imply the
// same constraint rows in the same order, hence the same polyhedron. Two
// equal polyhedra with different representations may key differently.
func (p *Poly) Key() (string, bool) {
	if p.empty {
		return "empty", true
	}
	if p.cons == nil {
		return "", false
	}
	sc := getScratch()
	key := numkernel.AppendKeyInt64(sc.key[:0], int64(p.n))
	for _, r := range p.cons {
		b := byte(0)
		if r.eq {
			b = 1
		}
		key = append(key, b)
		key = r.v.appendKey(key)
		key = append(key, 0xff)
	}
	sc.key = key
	s := string(key)
	putScratch(sc)
	return s, true
}

// Minimized reports whether p's rows came from a dual conversion. Key omits
// it, but System re-minimizes rows that did not: polyhedra with equal keys
// behave identically only when their Minimized flags agree too.
func (p *Poly) Minimized() bool { return p.minimized }

// SameRepr reports whether q has p's representation: the same dimension,
// both empty or the same known rows in order (by value and relation,
// whatever their tiers), and the same Minimized flag. It holds exactly when
// the Keys are equal and available and the Minimized flags agree, and it
// builds no key.
func (p *Poly) SameRepr(q *Poly) bool {
	if p.n != q.n || p.empty != q.empty || p.minimized != q.minimized {
		return false
	}
	if p.empty {
		return true
	}
	if p.cons == nil || q.cons == nil || len(p.cons) != len(q.cons) {
		return false
	}
	for i, r := range p.cons {
		if r.eq != q.cons[i].eq || !r.v.equal(q.cons[i].v) {
			return false
		}
	}
	return true
}

// MeetSystem intersects p with the constraints of sys, returning a new
// polyhedron.
func (p *Poly) MeetSystem(sys linear.System) *Poly {
	if p.IsEmpty() {
		return p.cfg.Bottom(p.n)
	}
	for _, c := range sys {
		if c.IsContradiction() {
			return p.cfg.Bottom(p.n)
		}
	}
	out := &Poly{n: p.n, cfg: p.cfg}
	p.ensureCons()
	out.cons = append(make([]row, 0, len(p.cons)+len(sys)), p.cons...)
	addsEq := false
	for _, c := range sys {
		if c.IsTautology() {
			continue
		}
		r := rowOf(c, p.n, p.cfg)
		addsEq = addsEq || r.eq
		out.cons = append(out.cons, r)
	}
	// The result's conversion may continue p's when p's generators are
	// the conversion of its rows and gensOf would add the new rows after
	// p's: it adds equalities first.
	if p.converted && (!addsEq || !hasInequality(p.cons)) {
		out.base = p.gens
	}
	return out
}

func hasInequality(rows []row) bool {
	for _, r := range rows {
		if !r.eq {
			return true
		}
	}
	return false
}

// Meet intersects two polyhedra.
func (p *Poly) Meet(q *Poly) *Poly {
	if p.IsEmpty() || q.IsEmpty() {
		return p.cfgOr(q).Bottom(p.n)
	}
	p.ensureCons()
	q.ensureCons()
	cons := append(make([]row, 0, len(p.cons)+len(q.cons)), p.cons...)
	return &Poly{n: p.n, cons: append(cons, q.cons...), cfg: p.cfgOr(q)}
}

// Join returns the convex hull of p and q (the domain's best
// over-approximation of union).
func (p *Poly) Join(q *Poly) *Poly {
	if p.IsEmpty() {
		return q.share()
	}
	if q.IsEmpty() {
		return p.share()
	}
	p.ensureGens()
	q.ensureGens()
	cfg := p.cfgOr(q)
	// The hull's constraints come straight from both generator sets
	// through the dual, so generator sets do not accumulate across joins.
	return &Poly{n: p.n, cons: consOf(p.n, cfg, p.gens, q.gens), minimized: true, cfg: cfg}
}

// Includes reports whether q is contained in p.
func (p *Poly) Includes(q *Poly) bool {
	if q.IsEmpty() {
		return true
	}
	if p.IsEmpty() {
		return false
	}
	p.ensureCons()
	q.ensureGens()
	for _, r := range p.cons {
		if !rowHoldsGens(r, q.gens) {
			return false
		}
	}
	return true
}

func rowHoldsGens(r row, g *genset) bool {
	sc := getScratch()
	defer putScratch(sc)
	nz := r.v.nonzeros(sc.nz)
	sc.nz = nz
	for _, l := range g.lines {
		if dot(r.v, l, nz).sign() != 0 {
			return false
		}
	}
	for _, ray := range g.rays {
		d := dot(r.v, ray, nz)
		if r.eq {
			if d.sign() != 0 {
				return false
			}
		} else if d.sign() < 0 {
			return false
		}
	}
	return true
}

// Equal reports whether p and q contain the same points.
func (p *Poly) Equal(q *Poly) bool {
	return p.Includes(q) && q.Includes(p)
}

// Entails reports whether every point of p satisfies c.
func (p *Poly) Entails(c linear.Constraint) bool {
	if p.IsEmpty() {
		return true
	}
	if c.IsTautology() {
		return true
	}
	p.ensureGens()
	sc := getScratch()
	ok := rowHoldsGens(fillRow(c, p.n, sc.vec(p.n+1, p.cfg.pure())), p.gens)
	putScratch(sc)
	return ok
}

// evalHom evaluates e homogeneously on generator g: e.Const()*g[0] +
// Σ e.Coef(u)*g[u+1], on the machine tier when everything fits.
func evalHom(e linear.Expr, g vec) scalar {
	if g.xs == nil && e.Const().IsInt64() {
		acc, ok := numkernel.MulOK(e.Const().Int64(), g.w[0])
		if ok {
			for _, u := range e.Vars() {
				c := e.Coef(u)
				if !c.IsInt64() {
					ok = false
					break
				}
				var p int64
				if p, ok = numkernel.MulOK(c.Int64(), g.w[u+1]); !ok {
					break
				}
				if acc, ok = numkernel.AddOK(acc, p); !ok {
					break
				}
			}
			if ok {
				return scalar{w: acc}
			}
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	t, tv := sc.t[0], sc.t[1]
	nv := new(big.Int).Mul(e.Const(), g.bigRef(0, tv))
	for _, u := range e.Vars() {
		t.Mul(e.Coef(u), g.bigRef(u+1, tv))
		nv.Add(nv, t)
	}
	return scalar{b: nv}
}

// Assign over-approximates the transition v := e (a linear expression over
// the current values). It maps every generator through the corresponding
// homogeneous linear map.
func (p *Poly) Assign(v int, e linear.Expr) *Poly {
	if p.IsEmpty() {
		return p.cfg.Bottom(p.n)
	}
	p.ensureGens()
	// The images are dead once the dual has read them, so they live in
	// pooled scratch storage.
	sc := getScratch()
	sc.words = slices.Grow(sc.words, (len(p.gens.lines)+len(p.gens.rays))*(p.n+1))
	vs := sc.vecs[:0]
	mapGen := func(g vec) {
		var r vec
		if g.xs == nil {
			r = sc.vec(p.n+1, false)
			copy(r.w, g.w)
		} else {
			r = g.clone()
		}
		// New value of coordinate v+1: e evaluated homogeneously.
		r.setScalar(v+1, evalHom(e, g))
		if r = r.normalize(); !r.isZero() {
			vs = append(vs, r)
		}
	}
	for _, l := range p.gens.lines {
		mapGen(l)
	}
	nl := len(vs)
	for _, r := range p.gens.rays {
		mapGen(r)
	}
	// Re-minimize through the dual.
	out := &Poly{n: p.n, cons: consOf(p.n, p.cfg, &genset{lines: vs[:nl:nl], rays: vs[nl:]}), minimized: true, cfg: p.cfg}
	clear(vs)
	sc.vecs = vs[:0]
	putScratch(sc)
	return out
}

// Havoc over-approximates v := unknown by making v unconstrained.
func (p *Poly) Havoc(v int) *Poly {
	if p.IsEmpty() {
		return p.cfg.Bottom(p.n)
	}
	p.ensureGens()
	sc := getScratch()
	l := sc.vec(p.n+1, p.cfg.pure())
	l.setInt64(v+1, 1)
	// p's generators plus the line along v.
	out := &Poly{n: p.n, cons: consOf(p.n, p.cfg, p.gens, &genset{lines: []vec{l}}), minimized: true, cfg: p.cfg}
	putScratch(sc)
	return out
}

// Substitute replaces v by e in every constraint: the result is the weakest
// precondition of the assignment v := e with respect to p
// (wp(v := e, p) = p[e/v]).
func (p *Poly) Substitute(v int, e linear.Expr) *Poly {
	if p.IsEmpty() {
		return p.cfg.Bottom(p.n)
	}
	p.ensureCons()
	out := &Poly{n: p.n, cons: []row{}, cfg: p.cfg}
	for _, r := range p.cons {
		c := rowToConstraint(r, p.n)
		ne := c.E.Subst(v, e)
		out.cons = append(out.cons, rowOf(linear.Constraint{E: ne, Rel: c.Rel}, p.n, p.cfg))
	}
	return out
}

// Forget returns p with every constraint mentioning v dropped (used for
// universally quantified elimination in backward analysis). This differs
// from Havoc only in that it works directly on the minimized constraints.
func (p *Poly) Forget(v int) *Poly {
	if p.IsEmpty() {
		return p.cfg.Bottom(p.n)
	}
	p.ensureCons()
	out := &Poly{n: p.n, cons: []row{}, cfg: p.cfg}
	for _, r := range p.cons {
		if r.v.sign(v+1) == 0 {
			out.cons = append(out.cons, r)
		}
	}
	return out
}

// System returns the minimized constraint system of p.
func (p *Poly) System() linear.System {
	if p.IsEmpty() {
		e := linear.ConstExpr(-1)
		return linear.System{linear.NewGe(e)} // -1 >= 0, unsatisfiable
	}
	p.ensureCons()
	if !p.minimized {
		p.ensureGens()
		if p.empty {
			return linear.System{linear.NewGe(linear.ConstExpr(-1))}
		}
		p.cons = consOf(p.n, p.cfg, p.gens)
		p.minimized, p.converted = true, false
	}
	sys := make(linear.System, 0, len(p.cons))
	for _, r := range p.cons {
		sys = append(sys, rowToConstraint(r, p.n))
	}
	return sys
}

// SystemOver returns the constraints of p that mention only variables for
// which keep returns true, after havocking the others (a sound projection).
func (p *Poly) SystemOver(keep func(int) bool) linear.System {
	if p.IsEmpty() {
		return p.System()
	}
	q := p
	for v := 0; v < p.n; v++ {
		if !keep(v) {
			q = q.Havoc(v)
		}
	}
	return q.System()
}

// SamplePoint returns a rational point inside p (a vertex), or nil if p is
// empty. The slice is indexed by variable.
func (p *Poly) SamplePoint() []*big.Rat {
	if p.IsEmpty() {
		return nil
	}
	p.ensureGens()
	for _, r := range p.gens.rays {
		if r.sign(0) > 0 {
			pt := make([]*big.Rat, p.n)
			for i := 1; i <= p.n; i++ {
				pt[i-1] = new(big.Rat).SetFrac(r.bigAt(i), r.bigAt(0))
			}
			return pt
		}
	}
	return nil
}

// Bounds returns the tightest [lo, hi] interval of variable v implied by p.
// Nil pointers denote unboundedness.
func (p *Poly) Bounds(v int) (lo, hi *big.Rat) {
	if p.IsEmpty() {
		return nil, nil
	}
	p.ensureGens()
	for _, l := range p.gens.lines {
		if l.sign(v+1) != 0 {
			return nil, nil
		}
	}
	unboundedUp, unboundedDown := false, false
	for _, r := range p.gens.rays {
		if r.sign(0) == 0 {
			if r.sign(v+1) > 0 {
				unboundedUp = true
			} else if r.sign(v+1) < 0 {
				unboundedDown = true
			}
		}
	}
	for _, r := range p.gens.rays {
		if r.sign(0) > 0 {
			val := new(big.Rat).SetFrac(r.bigAt(v+1), r.bigAt(0))
			if !unboundedDown && (lo == nil || val.Cmp(lo) < 0) {
				lo = val
			}
			if !unboundedUp && (hi == nil || val.Cmp(hi) > 0) {
				hi = val
			}
		}
	}
	return lo, hi
}

// Widen returns the CH78 widening of p (previous iterate) and q (next
// iterate): the constraints of p satisfied by q, plus constraints of q that
// saturate the same generators of p as some constraint of p does
// (Halbwachs' representation-stability refinement).
func (p *Poly) Widen(q *Poly) *Poly {
	if p.IsEmpty() {
		return q.share()
	}
	if q.IsEmpty() {
		return p.share()
	}
	p.ensureCons()
	p.ensureGens()
	q.ensureCons()

	out := &Poly{n: p.n, cons: []row{}, cfg: p.cfgOr(q)}
	kept := make([]row, 0, len(p.cons))
	for _, r := range p.cons {
		if rowHoldsGens(r, mustGens(q)) {
			kept = append(kept, r)
		}
	}
	// Refinement: keep rows of q that are "mutually redundant" with a row
	// of p (same saturation signature on p's generators). This can delay
	// stabilization in rare cases; the engine escalates to WidenSimple when
	// a node refuses to stabilize.
	sigP := make([]string, len(p.cons))
	for i, r := range p.cons {
		sigP[i] = satSignature(r, p.gens)
	}
	for _, rq := range q.cons {
		if rowHoldsGens(rq, p.gens) {
			sq := satSignature(rq, p.gens)
			for _, sp := range sigP {
				if sq == sp {
					out.cons = append(out.cons, rq)
					break
				}
			}
		}
	}
	out.cons = append(out.cons, kept...)
	out.cons = dedupRows(out.cons)
	return out
}

// WidenSimple is the unrefined CH78 widening: only the constraints of p
// satisfied by q survive. The result's constraint set is a subset of p's,
// so chains of WidenSimple are always finite.
func (p *Poly) WidenSimple(q *Poly) *Poly {
	if p.IsEmpty() {
		return q.share()
	}
	if q.IsEmpty() {
		return p.share()
	}
	p.ensureCons()
	out := &Poly{n: p.n, cons: []row{}, cfg: p.cfgOr(q)}
	for _, r := range p.cons {
		if rowHoldsGens(r, mustGens(q)) {
			out.cons = append(out.cons, r)
		}
	}
	return out
}

func mustGens(p *Poly) *genset {
	p.ensureGens()
	return p.gens
}

// satSignature encodes which generators of g the row saturates.
func satSignature(r row, g *genset) string {
	sc := getScratch()
	defer putScratch(sc)
	nz := r.v.nonzeros(sc.nz)
	sc.nz = nz
	var sb strings.Builder
	for _, l := range g.lines {
		if dot(r.v, l, nz).sign() == 0 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	sb.WriteByte('|')
	for _, ray := range g.rays {
		if dot(r.v, ray, nz).sign() == 0 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// dedupRows normalizes every row and drops later duplicates by value
// (relation included), keeping first occurrences in order. The rows may be
// operands' rows, so none is written or released: a row already normalized
// is kept as is, any other is replaced by a normalized copy.
func dedupRows(rows []row) []row {
	out := rows[:0]
	sc := getScratch()
	sc.set.reset(len(rows))
	for _, r := range rows {
		r.v = r.v.normalized()
		if sc.set.add(r.v.hash(), len(out), func(k int) bool { return out[k].eq == r.eq && out[k].v.equal(r.v) }) {
			out = append(out, r)
		}
	}
	putScratch(sc)
	return out
}

// String renders the constraint system with the given variable space.
func (p *Poly) String(sp *linear.Space) string {
	if p.IsEmpty() {
		return "false"
	}
	p.ensureCons()
	if len(p.cons) == 0 {
		return "true"
	}
	return p.System().String(sp)
}
