package polyhedra

import (
	"sync"

	"repro/internal/arena"
	"repro/internal/budget"
)

// genset is the generator representation of a homogenized cone: lines
// (bidirectional) and rays. Rays with a positive coordinate 0 are vertices
// of the dehomogenized polyhedron (point = v[1..]/v[0]); rays with
// coordinate 0 zero are recession rays.
type genset struct {
	lines []vec
	rays  []vec
	// The end state of the conversion that made the genset, kept so that
	// a conversion of more rows can continue it (continueGens): sat[i] is
	// the set of constraints rays[i] saturates, ncons the number of
	// constraints registered (the positivity constraint included), nrows
	// the number of rows converted and dropped the number of those the
	// ray cap dropped. sat is nil for a genset made otherwise.
	sat                   []bitset
	ncons, nrows, dropped int
}

// release returns the machine-tier backing of every generator the genset
// owns, and its saturation bitsets, to the arena. Borrowed generators
// (vec.borrow) belong to another genset and are left alone. The caller
// asserts the genset is dead.
func (g *genset) release(ar *arena.Arena) {
	for _, l := range g.lines {
		l.release(ar)
	}
	for _, r := range g.rays {
		r.release(ar)
	}
	for _, b := range g.sat {
		b.release(ar)
	}
}

// hasVertex reports whether any ray has a positive homogenizing coordinate,
// i.e. the dehomogenized polyhedron is non-empty.
func (g *genset) hasVertex() bool {
	for _, r := range g.rays {
		if r.sign(0) > 0 {
			return true
		}
	}
	return false
}

// row is a constraint row: v[0] + v[1]*x1 + ... + v[n]*xn {>=, ==} 0.
type row struct {
	v  vec
	eq bool
}

// satRay pairs a ray with the set of added constraints it saturates.
type satRay struct {
	v   vec
	sat bitset
}

// cone is the incremental double-description state used during
// constraint-to-generator conversion.
type cone struct {
	*coneBufs
	dim   int // vector length
	ncons int
	// maxRays caps intermediate ray counts; 0 means unlimited.
	maxRays int
	// dropped counts constraints skipped due to the cap (over-approximation).
	dropped int
	// pure forces new vectors onto the exact tier (reference kernel).
	pure bool
	// token, when non-nil, is polled before the combination step: an
	// exhausted budget drops the remaining constraints (sound
	// over-approximation, not counted in dropped — budget drops are
	// timing-dependent and must not surface in deterministic stats).
	token *budget.Token
	// ar recycles machine-tier vectors and saturation bitsets: every
	// generator the conversion replaces or drops is returned to it at the
	// point it becomes provably dead, unless it is borrowed (vec.borrow).
	// Nil disables recycling.
	ar *arena.Arena
}

// coneBufs is a cone's working storage, drawn from a pool so that the
// slices stop growing from empty in every conversion. spare double-buffers
// the ray slice: each add builds its successor ray set in spare and swaps,
// so the old backing is recycled instead of reallocated. nz holds the
// nonzero index of the row being added.
type coneBufs struct {
	lines             []vec
	rays, spare       []satRay
	plusBuf, minusBuf []classified
	nz                []int
}

var coneBufPool = sync.Pool{New: func() any { return new(coneBufs) }}

// newCone returns a cone with no generators, its working storage drawn
// from the pool.
func newCone(dim, maxRays int, pure bool, ar *arena.Arena) *cone {
	b := coneBufPool.Get().(*coneBufs)
	b.lines, b.rays = b.lines[:0], b.rays[:0]
	return &cone{coneBufs: b, dim: dim, maxRays: maxRays, pure: pure, ar: ar}
}

// recycle returns the cone's working storage to the pool; the cone must
// not be used afterwards.
func (c *cone) recycle() {
	coneBufPool.Put(c.coneBufs)
	c.coneBufs = nil
}

// classified is one ray of the case-2 partition of cone.add: its index
// into c.rays and its product against the constraint being added.
type classified struct {
	idx int
	p   scalar
}

// universePolyCone returns the cone of the universe polyhedron over n
// variables: lines e1..en and the positivity ray e0. The implicit
// positivity constraint d >= 0 is registered as constraint index 0 so that
// saturation-based adjacency tests account for it: the initial ray e0 does
// not saturate it, while every line (d = 0) does.
func universePolyCone(n, maxRays int, pure bool, token *budget.Token, ar *arena.Arena) *cone {
	c := newCone(n+1, maxRays, pure, ar)
	c.ncons, c.token = 1, token
	for i := 1; i <= n; i++ {
		l := newVecAr(ar, n+1, pure)
		l.setInt64(i, 1)
		c.lines = append(c.lines, l)
	}
	r := newVecAr(ar, n+1, pure)
	r.setInt64(0, 1)
	c.rays = append(c.rays, satRay{v: r, sat: newBitsetAr(ar, 1)})
	return c
}

// universeCone returns the full-space cone in dimension m (m lines, no
// rays); used for the dual (generator-to-constraint) conversion.
func universeCone(m, maxRays int, pure bool, ar *arena.Arena) *cone {
	c := newCone(m, maxRays, pure, ar)
	for i := 0; i < m; i++ {
		l := newVecAr(ar, m, pure)
		l.setInt64(i, 1)
		c.lines = append(c.lines, l)
	}
	return c
}

// satAllPrev returns a bitset with constraints 0..n-1 marked saturated.
func satAllPrev(ar *arena.Arena, n int) bitset {
	b := newBitsetAr(ar, n)
	for i := 0; i < n; i++ {
		b.set(i)
	}
	return b
}

// add incorporates the constraint r into the generator description
// (Chernikova's algorithm). It reports whether the constraint was applied
// (false when the ray cap forced it to be dropped, which over-approximates).
func (c *cone) add(r row) bool {
	idx := c.ncons
	c.ncons++
	// r takes part in every inner product of this step.
	nz := r.v.nonzeros(c.nz)
	c.nz = nz

	// Case 1: some line is not orthogonal to the constraint. Use it to
	// shift every other generator onto the hyperplane.
	for i, l := range c.lines {
		p := dot(r.v, l, nz)
		if p.sign() == 0 {
			continue
		}
		if p.sign() < 0 {
			old := l
			l = l.neg(c.ar)
			p = p.neg()
			old.release(c.ar) // negation copied; the original backing is dead
		}
		c.lines = append(c.lines[:i], c.lines[i+1:]...)
		for j, l2 := range c.lines {
			p2 := dot(r.v, l2, nz)
			if p2.sign() != 0 {
				c.lines[j] = combine(c.ar, p, l2, p2.neg(), l)
				l2.release(c.ar)
			}
		}
		for j := range c.rays {
			ry := &c.rays[j]
			old := ry.v
			p2 := dot(r.v, old, nz)
			if p2.sign() != 0 {
				ry.v = combine(c.ar, p, old, p2.neg(), l)
				old.release(c.ar)
			}
			ry.sat.set(idx)
		}
		if !r.eq {
			// The line itself becomes the ray on the positive side.
			l = l.normalize()
			c.rays = append(c.rays, satRay{v: l, sat: satAllPrev(c.ar, idx)})
		} else {
			l.release(c.ar)
		}
		return true
	}

	// Case 2: all lines orthogonal; partition rays by the sign of the
	// product with the constraint. The partitions live in per-cone scratch
	// buffers (written back below on every exit path).
	plus, minus := c.plusBuf[:0], c.minusBuf[:0]
	keep := c.spare[:0]
	for i := range c.rays {
		ry := &c.rays[i]
		p := dot(r.v, ry.v, nz)
		switch p.sign() {
		case 0:
			ry.sat.set(idx)
			keep = append(keep, *ry)
		case 1:
			plus = append(plus, classified{i, p})
		default:
			minus = append(minus, classified{i, p})
		}
	}
	if len(minus) == 0 && !r.eq {
		// Constraint already satisfied by all rays.
		for _, pl := range plus {
			keep = append(keep, c.rays[pl.idx])
		}
		c.plusBuf, c.minusBuf = plus, minus
		c.spare = c.rays[:0]
		c.rays = keep
		return true
	}
	capped := c.maxRays > 0 && len(plus)*len(minus) > c.maxRays
	// The combination step would explode (capped), or the budget is
	// exhausted: drop the constraint. The represented set only grows, a
	// sound over-approximation for the forward analysis. Budget drops are
	// not counted in dropped: they depend on wall-clock timing and must
	// not feed deterministic precision stats.
	if capped || c.token.Exhausted() {
		if capped {
			c.dropped++
		}
		// The next constraint reuses idx: clear the bit the zero-product
		// rays got above, or it would make the adjacency test skip real
		// extreme rays and shrink the result.
		for i := range c.rays {
			c.rays[i].sat.unset(idx)
		}
		c.plusBuf, c.minusBuf, c.spare = plus, minus, keep[:0]
		c.ncons--
		return false
	}

	allRays := c.rays
	newRays := keep
	if !r.eq {
		for _, pl := range plus {
			newRays = append(newRays, allRays[pl.idx])
		}
	}
	// Combine adjacent (plus, minus) pairs onto the hyperplane.
	for _, pl := range plus {
		pr := &allRays[pl.idx]
		for _, mi := range minus {
			if !adjacent(c.ar, pl.idx, mi.idx, allRays) {
				continue
			}
			mr := &allRays[mi.idx]
			// w = p_plus * minus - p_minus * plus (positive combination).
			w := combine(c.ar, pl.p, mr.v, mi.p.neg(), pr.v)
			if w.isZero() {
				w.release(c.ar)
				continue
			}
			sat := pr.sat.and(c.ar, mr.sat)
			sat.set(idx)
			newRays = append(newRays, satRay{v: w, sat: sat})
		}
	}
	// No step makes two equal rays, so newRays needs no dedup (DESIGN §6.1).
	c.rays = newRays
	// The minus rays never survive the constraint; plus rays survive only
	// for inequalities. Their storage is released strictly after the
	// combination loop, which reads it through allRays.
	for _, mi := range minus {
		allRays[mi.idx].v.release(c.ar)
		allRays[mi.idx].sat.release(c.ar)
	}
	if r.eq {
		for _, pl := range plus {
			allRays[pl.idx].v.release(c.ar)
			allRays[pl.idx].sat.release(c.ar)
		}
	}
	c.spare = allRays[:0]
	c.plusBuf, c.minusBuf = plus, minus
	return true
}

// adjacent implements the combinatorial adjacency test: rays i1 and i2 are
// adjacent iff no other ray saturates every constraint they both saturate.
func adjacent(ar *arena.Arena, i1, i2 int, all []satRay) bool {
	common := all[i1].sat.and(ar, all[i2].sat)
	adj := true
	for i := range all {
		if i == i1 || i == i2 {
			continue
		}
		if common.subsetOf(all[i].sat) {
			adj = false
			break
		}
	}
	common.release(ar)
	return adj
}

// result extracts the generator set, which keeps the cone's end state
// (the saturation bitsets, ncons and dropped) so that continueGens can
// resume it; nrows is the number of rows converted. The working storage
// is recycled; the cone must not be used afterwards.
func (c *cone) result(nrows int) *genset {
	g := &genset{
		lines: make([]vec, 0, len(c.lines)),
		rays:  make([]vec, 0, len(c.rays)),
		sat:   make([]bitset, 0, len(c.rays)),
		ncons: c.ncons, nrows: nrows, dropped: c.dropped,
	}
	for _, l := range c.lines {
		g.lines = append(g.lines, l.normalize())
	}
	for i := range c.rays {
		g.rays = append(g.rays, c.rays[i].v)
		g.sat = append(g.sat, c.rays[i].sat)
	}
	c.recycle()
	return g
}

// convert adds rows to the cone, equalities first (they only shrink the
// representation), and returns its result; nrows is the number of rows
// the cone had converted before.
func (c *cone) convert(rows []row, nrows int) *genset {
	for _, r := range rows {
		if r.eq {
			c.add(r)
		}
	}
	for _, r := range rows {
		if !r.eq {
			c.add(r)
		}
	}
	return c.result(nrows + len(rows))
}

// gensOf converts a constraint system to generators under the given
// configuration. The genset's dropped field reports how many constraints
// the ray cap dropped (budget-induced drops are excluded; see cone.add).
func gensOf(cons []row, n int, cfg *Config) *genset {
	return universePolyCone(n, cfg.maxRays(), cfg.pure(), cfg.token(), cfg.ar()).convert(cons, 0)
}

// continueGens resumes base's conversion (base came from gensOf or
// continueGens) with rows. The cone.add sequence is that of gensOf on
// base's rows followed by rows, provided gensOf adds them in that order:
// it adds equalities first, so either rows hold no equality or base's
// rows hold no inequality. The result is then identical to gensOf's, drop
// count included. The cone borrows base's vectors, so it never writes or
// releases them, and works on copies of the saturation bitsets, which
// add writes and may grow in place.
func continueGens(base *genset, rows []row, n int, cfg *Config) *genset {
	ar := cfg.ar()
	c := newCone(n+1, cfg.maxRays(), cfg.pure(), ar)
	c.ncons, c.dropped, c.token = base.ncons, base.dropped, cfg.token()
	for _, l := range base.lines {
		c.lines = append(c.lines, l.borrow())
	}
	for i, r := range base.rays {
		c.rays = append(c.rays, satRay{v: r.borrow(), sat: base.sat[i].cloneAr(ar)})
	}
	return c.convert(rows, base.nrows)
}

// dualOf returns the dual cone of the union G of gs,
// {c : c.g >= 0 for rays, c.l == 0 for lines}, converted from G's
// generators taken lines first and each kind in the order given. The dual
// conversion is never capped or budget-dropped: skipping a generator would
// shrink the represented set, which is unsound for the forward analysis.
func dualOf(n int, cfg *Config, gs ...*genset) *cone {
	dual := universeCone(n+1, 0, cfg.pure(), cfg.ar())
	for _, g := range gs {
		for _, l := range g.lines {
			dual.add(row{v: l, eq: true})
		}
	}
	for _, g := range gs {
		for _, r := range g.rays {
			dual.add(row{v: r, eq: false})
		}
	}
	return dual
}

// consOf converts generators to a minimized constraint system: the
// constraints of cone(G) are the generators of its dual cone (dualOf).
func consOf(n int, cfg *Config, gs ...*genset) []row {
	ar := cfg.ar()
	dual := dualOf(n, cfg, gs...)
	// The dual cone's vectors become the output rows; only the trivial
	// rows and the saturation bitsets are released. add only reads the
	// generators it is given, so none of the dual's storage aliases gs.
	// out is non-nil even when every row is trivial: nil cons means
	// "unknown", and the universe is known.
	out := make([]row, 0, len(dual.lines)+len(dual.rays))
	for _, l := range dual.lines {
		if trivialRow(l, true) {
			l.release(ar)
		} else {
			out = append(out, row{v: l, eq: true})
		}
	}
	for _, r := range dual.rays {
		r.sat.release(ar)
		if trivialRow(r.v, false) {
			r.v.release(ar)
		} else {
			out = append(out, row{v: r.v, eq: false})
		}
	}
	dual.recycle()
	return out
}

// trivialRow reports whether the row is the implicit positivity constraint
// (a nonnegative multiple of e0) or zero, neither of which constrains the
// dehomogenized polyhedron.
func trivialRow(v vec, eq bool) bool {
	n := v.dim()
	for i := 1; i < n; i++ {
		if v.sign(i) != 0 {
			return false
		}
	}
	if eq {
		// d == 0 would denote an empty polyhedron; keep it so emptiness
		// is preserved, unless it is the zero row.
		return v.sign(0) == 0
	}
	return v.sign(0) >= 0
}
