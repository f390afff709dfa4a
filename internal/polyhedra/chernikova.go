package polyhedra

import (
	"math"
	"math/big"
	"slices"
	"sync"

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
	// a conversion of more rows can continue it (continueGens): satOf(i)
	// is the set of constraints rays[i] saturates, nw words each in sat,
	// ncons the number of constraints registered (the positivity
	// constraint included), nrows the number of rows converted and
	// dropped the number of those the ray cap dropped. sat is nil for a
	// genset made otherwise, and for one without generators.
	sat                   []uint64
	nw                    int
	ncons, nrows, dropped int
}

// vec returns the genset's vector k, counting lines first.
func (g *genset) vec(k int) vec {
	if k < len(g.lines) {
		return g.lines[k]
	}
	return g.rays[k-len(g.lines)]
}

// satOf returns the saturation row of rays[i].
func (g *genset) satOf(i int) bitset {
	return bitset(g.sat[i*g.nw : (i+1)*g.nw : (i+1)*g.nw])
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

// vref locates a vector in its cone's storage: v >= 0 is slot v of the
// machine-tier slab, v < 0 entry ^v of the exact-tier side table.
type vref int32

// ray is a ray of a cone: its vector and the slot of the saturation slab
// that holds the set of added constraints it saturates.
type ray struct {
	v   vref
	sat int32
}

// classified is one ray of the case-2 partition of cone.add: its index
// into c.rays and its product with the constraint being added, w on the
// machine tier or, when x >= 0, the exact value c.prods[x].
type classified struct {
	idx, x int32
	w      int64
}

// pollPairs is how many (plus, minus) pairs cone.add combines between
// polls of its budget token.
const pollPairs = 256

// cone is the incremental double-description state used during
// constraint-to-generator conversion.
type cone struct {
	*coneBufs
	dim int // vector length
	nw  int // words per saturation row
	// ncons counts the constraints registered; it never exceeds the
	// capacity the saturation rows were sized for (newCone).
	ncons int
	// maxRays caps intermediate ray counts; 0 means unlimited.
	maxRays int
	// dropped counts constraints skipped due to the cap (over-approximation).
	dropped int
	// pure forces new vectors onto the exact tier (reference kernel).
	pure bool
	// token, when non-nil, is polled before the combination step and every
	// pollPairs pairs within it: an exhausted budget drops the remaining
	// constraints (sound over-approximation, not counted in dropped —
	// budget drops are timing-dependent and must not surface in
	// deterministic stats).
	token *budget.Token
	// base is the genset a continued conversion started from (nil
	// otherwise); see coneBufs.from.
	base *genset
}

// coneBufs is a cone's working storage, drawn from a pool so that it stops
// growing from empty in every conversion. Everything but the exact-tier
// side tables is pointer-free, so copying records runs no write barrier
// and the collector never scans the slabs.
//
// words holds the machine-tier vectors, slot s at words[s*dim:(s+1)*dim],
// and bits the saturation rows, slot s at bits[s*nw:(s+1)*nw]. The slots
// of dead vectors and rows go on freeW and freeS and are reused. exact is
// the side table of exact-tier vectors, and prods that of the exact
// products of the case-2 partition. spare double-buffers the ray records:
// each add builds its successor ray set in spare and swaps. nz holds the
// nonzero index of the row being added, common the intersection the
// adjacency test computes. from[s] is k when slot s holds an unchanged
// copy of the base's vector k (genset.vec), and -1 otherwise: such a
// vector leaves the cone as the base's own, not as a copy.
type coneBufs struct {
	words             []int64
	bits              []uint64
	freeW, freeS      []int32
	from              []int32
	exact             []vec
	prods             []*big.Int
	lines             []vref
	rays, spare       []ray
	plusBuf, minusBuf []classified
	nz                []int
	common            bitset
}

var coneBufPool = sync.Pool{New: func() any { return new(coneBufs) }}

// newCone returns a cone of vectors of length dim with no generators,
// whose saturation rows hold ncap constraints, its working storage drawn
// from the pool.
func newCone(dim, ncap, maxRays int, pure bool) *cone {
	b := coneBufPool.Get().(*coneBufs)
	b.words, b.bits, b.from = b.words[:0], b.bits[:0], b.from[:0]
	b.freeW, b.freeS = b.freeW[:0], b.freeS[:0]
	b.lines, b.rays = b.lines[:0], b.rays[:0]
	nw := max(1, (ncap+63)/64)
	b.common = slices.Grow(b.common[:0], nw)[:nw]
	return &cone{coneBufs: b, dim: dim, nw: nw, maxRays: maxRays, pure: pure}
}

// recycle returns the cone's working storage to the pool; the cone must
// not be used afterwards.
func (c *cone) recycle() {
	b := c.coneBufs
	c.coneBufs = nil
	clear(b.exact)
	clear(b.prods)
	b.exact, b.prods = b.exact[:0], b.prods[:0]
	coneBufPool.Put(b)
}

// newSlot returns a slot of the machine-tier slab, its words unset.
func (c *cone) newSlot() int32 {
	var s int32
	if n := len(c.freeW); n > 0 {
		s = c.freeW[n-1]
		c.freeW = c.freeW[:n-1]
	} else {
		s = int32(len(c.from))
		c.words = extend(c.words, c.dim)
		c.from = append(c.from, 0)
	}
	c.from[s] = -1
	return s
}

// newSat returns a slot of the saturation slab, its words unset.
func (c *cone) newSat() int32 {
	if n := len(c.freeS); n > 0 {
		s := c.freeS[n-1]
		c.freeS = c.freeS[:n-1]
		return s
	}
	s := len(c.bits) / c.nw
	c.bits = extend(c.bits, c.nw)
	return int32(s)
}

// slot returns the machine-tier slot s. The view is valid until the
// next newSlot, which may move the slab.
func (c *cone) slot(s int32) []int64 {
	i := int(s) * c.dim
	return c.words[i : i+c.dim : i+c.dim]
}

// sat returns the saturation row in slot s, valid until the next newSat.
func (c *cone) sat(s int32) bitset {
	i := int(s) * c.nw
	return bitset(c.bits[i : i+c.nw : i+c.nw])
}

// vec returns a view of the vector v, valid until the next newSlot.
func (c *cone) vec(v vref) vec {
	if v < 0 {
		return c.exact[^v]
	}
	return vec{w: c.slot(int32(v))}
}

// store moves the vector v into the cone: machine-tier words are copied
// into a slot, an exact-tier vector goes into the side table.
func (c *cone) store(v vec) vref {
	if v.xs != nil {
		c.exact = append(c.exact, v)
		return ^vref(len(c.exact) - 1)
	}
	s := c.newSlot()
	copy(c.slot(s), v.w)
	return vref(s)
}

// free gives v's storage back: its slot goes on the free list, its side
// table entry is cleared.
func (c *cone) free(v vref) {
	if v < 0 {
		c.exact[^v] = vec{}
		return
	}
	c.freeW = append(c.freeW, int32(v))
}

// freeRay gives back a dead ray's vector and saturation row.
func (c *cone) freeRay(r ray) {
	c.free(r.v)
	c.freeS = append(c.freeS, r.sat)
}

// unit returns a new unit vector along coordinate i.
func (c *cone) unit(i int) vref {
	if c.pure {
		v := newVec(c.dim, true)
		v.setInt64(i, 1)
		return c.store(v)
	}
	s := c.newSlot()
	w := c.slot(s)
	clear(w)
	w[i] = 1
	return vref(s)
}

// satAllPrev returns a new saturation row with constraints 0..n-1 marked
// saturated.
func (c *cone) satAllPrev(n int) int32 {
	s := c.newSat()
	b := c.sat(s)
	clear(b)
	for i := 0; i < n; i++ {
		b.set(i)
	}
	return s
}

// neg negates v in place, moving it to the exact tier when an entry is
// MinInt64, and returns its new reference.
func (c *cone) neg(v vref) vref {
	if v < 0 {
		for _, x := range c.exact[^v].xs {
			x.Neg(x)
		}
		return v
	}
	w := c.slot(int32(v))
	c.from[v] = -1
	if slices.Contains(w, math.MinInt64) {
		p := vec{w: w}.promoted()
		for _, x := range p.xs {
			x.Neg(x)
		}
		c.free(v)
		return c.store(p)
	}
	for i := range w {
		w[i] = -w[i]
	}
	return v
}

// normalize normalizes v in place (see vec.normalize) and returns its new
// reference: an exact-tier vector that demotes moves into a slot.
func (c *cone) normalize(v vref) vref {
	if v >= 0 {
		if normalizeWords(c.slot(int32(v))) {
			c.from[v] = -1
		}
		return v
	}
	n := c.exact[^v].normalize()
	if n.xs != nil {
		return v
	}
	c.free(v)
	return c.store(n)
}

// dot returns the inner product of the row r, whose nonzero index is nz,
// and the vector v (see the function dot).
func (c *cone) dot(r vec, v vref, nz []int) scalar {
	if r.xs == nil && v >= 0 {
		if p, ok := dotWords(r.w, c.slot(int32(v)), nz); ok {
			return scalar{w: p}
		}
	}
	return dot(r, c.vec(v), nz)
}

// combine returns a new vector ka*a + kb*b, normalized: on the machine
// tier when every product and sum fits a word, otherwise replayed on the
// exact tier.
func (c *cone) combine(ka scalar, a vref, kb scalar, b vref) vref {
	if ka.b == nil && kb.b == nil && a >= 0 && b >= 0 {
		s := c.newSlot()
		if combineWords(c.slot(s), ka.w, c.slot(int32(a)), kb.w, c.slot(int32(b))) {
			return vref(s)
		}
		c.freeW = append(c.freeW, s)
	}
	return c.store(combineBig(ka, c.vec(a), kb, c.vec(b)))
}

// classify records ray i's product p for the case-2 partition.
func (c *cone) classify(i int, p scalar) classified {
	if p.b == nil {
		return classified{idx: int32(i), x: -1, w: p.w}
	}
	c.prods = append(c.prods, p.b)
	return classified{idx: int32(i), x: int32(len(c.prods) - 1)}
}

// prod returns a classified ray's product.
func (c *cone) prod(cl classified) scalar {
	if cl.x >= 0 {
		return scalar{b: c.prods[cl.x]}
	}
	return scalar{w: cl.w}
}

// universePolyCone returns the cone of the universe polyhedron over n
// variables, sized for nrows more constraints: lines e1..en and the
// positivity ray e0. The implicit positivity constraint d >= 0 is
// registered as constraint index 0 so that saturation-based adjacency
// tests account for it: the initial ray e0 does not saturate it, while
// every line (d = 0) does.
func universePolyCone(n, nrows, maxRays int, pure bool, token *budget.Token) *cone {
	c := newCone(n+1, 1+nrows, maxRays, pure)
	c.ncons, c.token = 1, token
	for i := 1; i <= n; i++ {
		c.lines = append(c.lines, c.unit(i))
	}
	c.rays = append(c.rays, ray{v: c.unit(0), sat: c.satAllPrev(0)})
	return c
}

// universeCone returns the full-space cone in dimension m (m lines, no
// rays), sized for ncap constraints; used for the dual
// (generator-to-constraint) conversion.
func universeCone(m, ncap, maxRays int, pure bool) *cone {
	c := newCone(m, ncap, maxRays, pure)
	for i := 0; i < m; i++ {
		c.lines = append(c.lines, c.unit(i))
	}
	return c
}

// add incorporates the constraint r into the generator description
// (Chernikova's algorithm). It reports whether the constraint was applied
// (false when the ray cap or the budget forced it to be dropped, which
// over-approximates).
func (c *cone) add(r row) bool {
	return c.addUntil(r, c.exhausted)
}

// exhausted polls the budget token every pollPairs (plus, minus) pairs of
// the combination step, and once before it (pairs 0).
func (c *cone) exhausted(pairs int) bool {
	return pairs%pollPairs == 0 && c.token.Exhausted()
}

// addUntil is add with the budget poll as a parameter: stop(0) is asked
// before the combination step and stop(k) before its k-th (plus, minus)
// pair, and a true answer drops the constraint.
func (c *cone) addUntil(r row, stop func(pairs int) bool) bool {
	idx := c.ncons
	c.ncons++
	// r takes part in every inner product of this step.
	nz := r.v.nonzeros(c.nz)
	c.nz = nz

	// Case 1: some line is not orthogonal to the constraint. Use it to
	// shift every other generator onto the hyperplane.
	for i, l := range c.lines {
		p := c.dot(r.v, l, nz)
		if p.sign() == 0 {
			continue
		}
		if p.sign() < 0 {
			l = c.neg(l)
			p = p.neg()
		}
		c.lines = append(c.lines[:i], c.lines[i+1:]...)
		for j, l2 := range c.lines {
			p2 := c.dot(r.v, l2, nz)
			if p2.sign() != 0 {
				c.lines[j] = c.combine(p, l2, p2.neg(), l)
				c.free(l2)
			}
		}
		for j := range c.rays {
			ry := &c.rays[j]
			p2 := c.dot(r.v, ry.v, nz)
			if p2.sign() != 0 {
				old := ry.v
				ry.v = c.combine(p, old, p2.neg(), l)
				c.free(old)
			}
			c.sat(ry.sat).set(idx)
		}
		if !r.eq {
			// The line itself becomes the ray on the positive side.
			c.rays = append(c.rays, ray{v: c.normalize(l), sat: c.satAllPrev(idx)})
		} else {
			c.free(l)
		}
		return true
	}

	// Case 2: all lines orthogonal; partition rays by the sign of the
	// product with the constraint.
	keep := c.partition(r.v, idx, nz)
	plus, minus := c.plusBuf, c.minusBuf
	if len(minus) == 0 && !r.eq {
		// Constraint already satisfied by all rays.
		for _, pl := range plus {
			keep = append(keep, c.rays[pl.idx])
		}
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
	if capped || stop(0) {
		if capped {
			c.dropped++
		}
		c.drop(idx, keep, len(keep), len(c.exact))
		return false
	}

	newRays := keep
	if !r.eq {
		for _, pl := range plus {
			newRays = append(newRays, c.rays[pl.idx])
		}
	}
	// Combine adjacent (plus, minus) pairs onto the hyperplane, polling
	// the budget as the pairs go: a budget that runs out drops the
	// constraint as above.
	from, exact, pairs := len(newRays), len(c.exact), 0
	for _, pl := range plus {
		for _, mi := range minus {
			if pairs++; stop(pairs) {
				c.drop(idx, newRays, from, exact)
				return false
			}
			newRays = c.combinePair(idx, pl, mi, newRays)
		}
	}
	// No step makes two equal rays, so newRays needs no dedup (DESIGN §6.1).
	// The minus rays never survive the constraint; plus rays survive only
	// for inequalities. Their storage is freed strictly after the
	// combination loop, which reads it.
	for _, mi := range minus {
		c.freeRay(c.rays[mi.idx])
	}
	if r.eq {
		for _, pl := range plus {
			c.freeRay(c.rays[pl.idx])
		}
	}
	c.spare = c.rays[:0]
	c.rays = newRays
	return true
}

// partition sorts the rays by the sign of their product with the row r of
// constraint idx, whose nonzero index is nz: it returns the zero-product
// rays, which it marks as saturating idx, in the spare buffer, and leaves
// the positive and negative ones in plusBuf and minusBuf.
func (c *cone) partition(r vec, idx int, nz []int) []ray {
	plus, minus := c.plusBuf[:0], c.minusBuf[:0]
	keep := c.spare[:0]
	c.prods = c.prods[:0]
	for i, ry := range c.rays {
		p := c.dot(r, ry.v, nz)
		switch p.sign() {
		case 0:
			c.sat(ry.sat).set(idx)
			keep = append(keep, ry)
		case 1:
			plus = append(plus, c.classify(i, p))
		default:
			minus = append(minus, c.classify(i, p))
		}
	}
	c.plusBuf, c.minusBuf = plus, minus
	return keep
}

// combinePair appends to newRays the combination of the plus ray pl and
// the minus ray mi onto the hyperplane of constraint idx, provided the two
// are adjacent and the combination is not zero.
func (c *cone) combinePair(idx int, pl, mi classified, newRays []ray) []ray {
	if !c.adjacent(int(pl.idx), int(mi.idx)) {
		return newRays
	}
	// w = p_plus * minus - p_minus * plus (positive combination).
	w := c.combine(c.prod(pl), c.rays[mi.idx].v, c.prod(mi).neg(), c.rays[pl.idx].v)
	if c.vec(w).isZero() {
		c.free(w)
		return newRays
	}
	s := c.newSat()
	sat := c.sat(s)
	copy(sat, c.common)
	sat.set(idx)
	return append(newRays, ray{v: w, sat: s})
}

// drop abandons constraint idx in the middle of add: it frees the storage
// of the combined rays newRays[from:], truncates the side table to the
// exact entries it held before the combinations, clears bit idx, which
// the zero-product rays got, and unregisters the constraint. The next
// constraint reuses idx, so a stale bit would make the adjacency test
// skip real extreme rays and shrink the result. c.rays is left as it was
// before the add.
func (c *cone) drop(idx int, newRays []ray, from, exact int) {
	for _, ry := range newRays[from:] {
		c.freeRay(ry)
	}
	c.exact = c.exact[:exact]
	for _, ry := range c.rays {
		c.sat(ry.sat).unset(idx)
	}
	c.spare = newRays[:0]
	c.ncons--
}

// adjacent implements the combinatorial adjacency test: rays i1 and i2 are
// adjacent iff no other ray saturates every constraint they both saturate.
// It leaves the common constraints in c.common.
func (c *cone) adjacent(i1, i2 int) bool {
	a, b := c.sat(c.rays[i1].sat), c.sat(c.rays[i2].sat)
	common := c.common
	for k := range common {
		common[k] = a[k] & b[k]
	}
	if c.nw == 1 {
		cw := common[0]
		for i, ry := range c.rays {
			if cw&^c.bits[ry.sat] == 0 && i != i1 && i != i2 {
				return false
			}
		}
		return true
	}
	for i, ry := range c.rays {
		if i != i1 && i != i2 && common.subsetOf(c.sat(ry.sat)) {
			return false
		}
	}
	return true
}

// export hands put each line, then each ray, as a vector that outlives
// the cone: an exact-tier vector moves, an unchanged copy of a base
// vector is the base's own, and the words of every other one are copied
// into one new backing.
func (c *cone) export(put func(i int, v vec)) {
	n := 0
	for _, l := range c.lines {
		n += c.copied(l)
	}
	for _, r := range c.rays {
		n += c.copied(r.v)
	}
	words := make([]int64, n*c.dim)
	out := func(v vref) vec {
		switch {
		case v < 0:
			return c.exact[^v]
		case c.from[v] >= 0:
			return c.base.vec(int(c.from[v]))
		}
		w := words[:c.dim:c.dim]
		words = words[c.dim:]
		copy(w, c.slot(int32(v)))
		return vec{w: w}
	}
	for i, l := range c.lines {
		put(i, out(l))
	}
	for i, r := range c.rays {
		put(len(c.lines)+i, out(r.v))
	}
}

// copied reports, as 0 or 1, whether export copies v's words.
func (c *cone) copied(v vref) int {
	if v >= 0 && c.from[v] < 0 {
		return 1
	}
	return 0
}

// hasVertex is genset.hasVertex of the cone's rays.
func (c *cone) hasVertex() bool {
	for _, r := range c.rays {
		if c.vec(r.v).sign(0) > 0 {
			return true
		}
	}
	return false
}

// result extracts the generator set, which keeps the cone's end state
// (the saturation rows, ncons and dropped) so that continueGens can
// resume it; nrows is the number of rows converted. The vectors are
// exported and the saturation rows copied into one backing. A cone with
// no vertex yields a genset without generators: its polyhedron is empty,
// and ensureGens reads no more of it. The working storage is recycled;
// the cone must not be used afterwards.
func (c *cone) result(nrows int) *genset {
	g := &genset{ncons: c.ncons, nrows: nrows, dropped: c.dropped}
	if !c.hasVertex() {
		c.recycle()
		return g
	}
	for i, l := range c.lines {
		c.lines[i] = c.normalize(l)
	}
	nl := len(c.lines)
	vs := make([]vec, nl+len(c.rays))
	g.lines, g.rays = vs[:nl:nl], vs[nl:]
	c.export(func(i int, v vec) { vs[i] = v })
	g.sat, g.nw = make([]uint64, len(c.rays)*c.nw), c.nw
	for i, r := range c.rays {
		copy(g.sat[i*c.nw:], c.sat(r.sat))
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
	return universePolyCone(n, len(cons), cfg.maxRays(), cfg.pure(), cfg.token()).convert(cons, 0)
}

// continueGens resumes base's conversion (base came from gensOf or
// continueGens) with rows. The cone.add sequence is that of gensOf on
// base's rows followed by rows, provided gensOf adds them in that order:
// it adds equalities first, so either rows hold no equality or base's
// rows hold no inequality. The result is then identical to gensOf's, drop
// count included. The cone starts from copies of base's vectors and
// saturation rows, so base is only read.
func continueGens(base *genset, rows []row, n int, cfg *Config) *genset {
	c := newCone(n+1, base.ncons+len(rows), cfg.maxRays(), cfg.pure())
	c.ncons, c.dropped, c.token, c.base = base.ncons, base.dropped, cfg.token(), base
	for k, l := range base.lines {
		c.lines = append(c.lines, c.copyIn(l, k))
	}
	for i, r := range base.rays {
		s := c.newSat()
		sat := c.sat(s)
		// Every bit base sets is below base.ncons, which fits either row.
		clear(sat[copy(sat, base.satOf(i)):])
		c.rays = append(c.rays, ray{v: c.copyIn(r, len(base.lines)+i), sat: s})
	}
	return c.convert(rows, base.nrows)
}

// copyIn stores a copy of the base's vector v, its vector k, in the cone.
func (c *cone) copyIn(v vec, k int) vref {
	if v.xs == nil {
		s := c.store(v)
		c.from[s] = int32(k)
		return s
	}
	xs := make([]*big.Int, len(v.xs))
	for i, x := range v.xs {
		xs[i] = new(big.Int).Set(x)
	}
	return c.store(vec{xs: xs, pure: v.pure})
}

// dualOf returns the dual cone of the union G of gs,
// {c : c.g >= 0 for rays, c.l == 0 for lines}, converted from G's
// generators taken lines first and each kind in the order given. The dual
// conversion is never capped or budget-dropped: skipping a generator would
// shrink the represented set, which is unsound for the forward analysis.
func dualOf(n int, cfg *Config, gs ...*genset) *cone {
	m := 0
	for _, g := range gs {
		m += len(g.lines) + len(g.rays)
	}
	dual := universeCone(n+1, m, 0, cfg.pure())
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
	dual := dualOf(n, cfg, gs...)
	// The dual cone's non-trivial vectors are exported as the rows. out
	// is non-nil even when every row is trivial: nil cons means
	// "unknown", and the universe is known.
	dual.lines = slices.DeleteFunc(dual.lines, func(l vref) bool { return trivialRow(dual.vec(l), true) })
	dual.rays = slices.DeleteFunc(dual.rays, func(r ray) bool { return trivialRow(dual.vec(r.v), false) })
	out := make([]row, len(dual.lines)+len(dual.rays))
	dual.export(func(i int, v vec) { out[i] = row{v: v, eq: i < len(dual.lines)} })
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
