// Package polyhedra implements the convex-polyhedra abstract domain of
// Cousot and Halbwachs [6,17] using the double-description (Chernikova)
// method with exact arithmetic. It is the Go substitute for the New Polka
// library the paper's prototype used [19].
//
// A polyhedron over n integer variables is represented by its homogenized
// cone in R^(n+1): coordinate 0 is the homogenizing coordinate d, and
// coordinates 1..n are the variables. A constraint row c means
// c[0]*d + c[1]*x1 + ... + c[n]*xn >= 0 (or == 0); a point x of the
// polyhedron corresponds to the ray (1, x). Both the constraint and the
// generator representation are maintained lazily, each derived from the
// other by the same conversion algorithm applied in the dual.
//
// Arithmetic is exact but two-tiered, the trick New Polka itself uses:
// coefficient vectors live on a machine-word (int64) tier with
// overflow-checked operations, and promote — per row, not per polyhedron —
// to big.Int exactly when an operation would overflow. Promotion preserves
// values bit-for-bit, and normalization demotes exact-tier rows whose
// entries fit a machine word again, so results are identical to a pure
// big.Int kernel (enforced by the differential tests in ops_test.go).
package polyhedra

import (
	"math"
	"math/big"
	"slices"
	"sync"

	"repro/internal/numkernel"
)

// vec is a hybrid coefficient vector. Exactly one tier is active: the
// machine tier w (when xs == nil) or the exact tier xs. pure marks
// vectors of the reference kernel (Config.PureBig): they live on the
// exact tier and are never demoted. The flag is per-vector rather than a
// package global so concurrent analyses with different configurations
// cannot interfere.
type vec struct {
	w    []int64
	xs   []*big.Int
	pure bool
}

func newVec(n int, pure bool) vec {
	if pure {
		xs := make([]*big.Int, n)
		for i := range xs {
			xs[i] = new(big.Int)
		}
		return vec{xs: xs, pure: true}
	}
	return vec{w: make([]int64, n)}
}

func (v vec) dim() int {
	if v.xs != nil {
		return len(v.xs)
	}
	return len(v.w)
}

// promoted returns an exact-tier vector with the same values. Machine-tier
// input yields fresh, independent storage; exact-tier input is returned
// as-is (shared).
func (v vec) promoted() vec {
	if v.xs != nil {
		return v
	}
	xs := make([]*big.Int, len(v.w))
	for i, x := range v.w {
		xs[i] = big.NewInt(x)
	}
	return vec{xs: xs}
}

// demoted moves v back to the machine tier when every entry fits an int64;
// otherwise (or for reference-kernel vectors) v is returned unchanged.
func (v vec) demoted() vec {
	if v.xs == nil || v.pure {
		return v
	}
	for _, x := range v.xs {
		if !x.IsInt64() {
			return v
		}
	}
	w := make([]int64, len(v.xs))
	for i, x := range v.xs {
		w[i] = x.Int64()
	}
	return vec{w: w}
}

// clone returns an independent copy of v.
func (v vec) clone() vec {
	if v.xs != nil {
		c := make([]*big.Int, len(v.xs))
		for i := range v.xs {
			c[i] = new(big.Int).Set(v.xs[i])
		}
		return vec{xs: c, pure: v.pure}
	}
	return vec{w: slices.Clone(v.w)}
}

func (v vec) sign(i int) int {
	if v.xs != nil {
		return v.xs[i].Sign()
	}
	switch {
	case v.w[i] > 0:
		return 1
	case v.w[i] < 0:
		return -1
	}
	return 0
}

// setInt64 stores x at index i (both tiers hold any int64).
func (v vec) setInt64(i int, x int64) {
	if v.xs != nil {
		v.xs[i].SetInt64(x)
		return
	}
	v.w[i] = x
}

// setBig stores x at index i, promoting the vector when x does not fit the
// machine tier.
func (v *vec) setBig(i int, x *big.Int) {
	if v.xs == nil {
		if x.IsInt64() {
			v.w[i] = x.Int64()
			return
		}
		*v = v.promoted()
	}
	v.xs[i].Set(x)
}

// setScalar stores s at index i, promoting the vector when s is on the
// exact tier and does not fit a machine word.
func (v *vec) setScalar(i int, s scalar) {
	if s.b != nil {
		v.setBig(i, s.b)
		return
	}
	v.setInt64(i, s.w)
}

// bigAt returns the exact value at index i; machine-tier reads allocate.
// Callers must treat the result as read-only.
func (v vec) bigAt(i int) *big.Int {
	if v.xs != nil {
		return v.xs[i]
	}
	return big.NewInt(v.w[i])
}

// bigRef is bigAt without allocation: machine-tier reads are materialized
// into tmp.
func (v vec) bigRef(i int, tmp *big.Int) *big.Int {
	if v.xs != nil {
		return v.xs[i]
	}
	return tmp.SetInt64(v.w[i])
}

func (v vec) isZero() bool {
	if v.xs == nil {
		for _, x := range v.w {
			if x != 0 {
				return false
			}
		}
		return true
	}
	for _, x := range v.xs {
		if x.Sign() != 0 {
			return false
		}
	}
	return true
}

// appendKey appends the canonical value-based encoding of every entry to
// key. Equal vectors encode equally regardless of tier.
func (v vec) appendKey(key []byte) []byte {
	if v.xs == nil {
		for _, x := range v.w {
			key = numkernel.AppendKeyInt64(key, x)
		}
		return key
	}
	for _, x := range v.xs {
		key = numkernel.AppendKeyBig(key, x)
	}
	return key
}

// hash returns a value hash of v: machine words are mixed directly, and an
// exact-tier entry is mixed as its int64 value when it fits one and as its
// sign and limbs otherwise, so equal vectors hash equally on either tier.
func (v vec) hash() uint64 {
	const prime = 0x100000001b3
	h := uint64(14695981039346656037)
	if v.xs == nil {
		for _, x := range v.w {
			h = (h ^ uint64(x)) * prime
		}
	} else {
		for _, x := range v.xs {
			if x.IsInt64() {
				h = (h ^ uint64(x.Int64())) * prime
				continue
			}
			h = (h ^ uint64(x.Sign()+2)<<62) * prime
			for _, w := range x.Bits() {
				h = (h ^ uint64(w)) * prime
			}
		}
	}
	// The multiplications only carry upwards; fold the high bits down so
	// the low bits that index the table depend on every entry.
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

// equal reports whether v and u, of one dimension, hold the same values
// whatever their tiers.
func (v vec) equal(u vec) bool {
	if v.xs == nil && u.xs == nil {
		return slices.Equal(v.w, u.w)
	}
	var ta, tb big.Int
	for i := 0; i < v.dim(); i++ {
		if v.bigRef(i, &ta).Cmp(u.bigRef(i, &tb)) != 0 {
			return false
		}
	}
	return true
}

// vecSet indexes the vectors a dedup pass keeps: an open-addressed table,
// probed linearly from a value hash, of positions in the kept slice (plus
// one; 0 marks an empty slot). It is reused across passes, so the steady
// state allocates nothing.
type vecSet []int32

// reset empties the set and sizes it for n vectors.
func (s *vecSet) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(*s) < size {
		*s = make(vecSet, size)
		return
	}
	*s = (*s)[:size]
	clear(*s)
}

// add records kept position k, unless same reports an equal vector at a
// kept position on h's probe sequence.
func (s vecSet) add(h uint64, k int, same func(kept int) bool) bool {
	mask := uint64(len(s) - 1)
	i := h & mask
	for ; s[i] != 0; i = (i + 1) & mask {
		if same(int(s[i] - 1)) {
			return false
		}
	}
	s[i] = int32(k + 1)
	return true
}

// scalar is a hybrid integer: the machine value w when b == nil, the exact
// value b otherwise.
type scalar struct {
	w int64
	b *big.Int
}

func (s scalar) sign() int {
	if s.b != nil {
		return s.b.Sign()
	}
	switch {
	case s.w > 0:
		return 1
	case s.w < 0:
		return -1
	}
	return 0
}

func (s scalar) neg() scalar {
	if s.b == nil {
		if n, ok := numkernel.NegOK(s.w); ok {
			return scalar{w: n}
		}
		return scalar{b: new(big.Int).Neg(big.NewInt(s.w))}
	}
	return scalar{b: new(big.Int).Neg(s.b)}
}

// bigRef materializes the scalar into tmp when it is on the machine tier.
func (s scalar) bigRef(tmp *big.Int) *big.Int {
	if s.b != nil {
		return s.b
	}
	return tmp.SetInt64(s.w)
}

// nonzeros returns the ascending indices of v's nonzero entries, built
// in buf's storage. A constraint row stays fixed while it is tested
// against many generators, so its index is built once and every inner
// product it takes part in walks only those coordinates.
func (v vec) nonzeros(buf []int) []int {
	buf = buf[:0]
	if v.xs == nil {
		for i, x := range v.w {
			if x != 0 {
				buf = append(buf, i)
			}
		}
		return buf
	}
	for i, x := range v.xs {
		if x.Sign() != 0 {
			buf = append(buf, i)
		}
	}
	return buf
}

// dot returns the inner product of a and b, promoting to the exact tier on
// overflow. nz is a's nonzero index (see nonzeros): every other term is
// zero, and the walk meets the nonzero terms in ascending order, so an
// overflow check fails on the same term as in a walk over every
// coordinate and the result's tier is the same.
func dot(a, b vec, nz []int) scalar {
	if a.xs == nil && b.xs == nil {
		if p, ok := dotWords(a.w, b.w, nz); ok {
			return scalar{w: p}
		}
	}
	return scalar{b: dotBig(a, b, nz)}
}

// dotWords is the machine-tier inner product of a and b over a's nonzero
// index nz; it reports whether every product and partial sum fitted a
// word.
func dotWords(a, b []int64, nz []int) (int64, bool) {
	var acc int64
	for _, i := range nz {
		y := b[i]
		if y == 0 {
			continue
		}
		x := a[i]
		var p int64
		if small(x) && small(y) {
			p = x * y
		} else {
			var ok bool
			if p, ok = numkernel.MulOK(x, y); !ok {
				return 0, false
			}
		}
		var ok bool
		if acc, ok = numkernel.AddOK(acc, p); !ok {
			return 0, false
		}
	}
	return acc, true
}

// small reports whether |x| < 2^31, so that the product of two such
// values fits a word.
func small(x int64) bool { return uint64(x+1<<31) < 1<<32 }

// dotBig is the exact-tier inner product over a's nonzero index nz;
// per-element temporaries come from the pooled scratch space.
func dotBig(a, b vec, nz []int) *big.Int {
	sc := getScratch()
	defer putScratch(sc)
	t, ta, tb := sc.t[0], sc.t[1], sc.t[2]
	s := new(big.Int)
	for _, i := range nz {
		if b.sign(i) == 0 {
			continue
		}
		t.Mul(a.bigRef(i, ta), b.bigRef(i, tb))
		s.Add(s, t)
	}
	return s
}

// gcdWords returns the gcd of w's entries: 0 when all are zero, and 1 as
// soon as it is known to be 1.
func gcdWords(w []int64) uint64 {
	var g uint64
	for _, x := range w {
		if x != 0 {
			if g = numkernel.Gcd64(g, numkernel.AbsU64(x)); g == 1 {
				return 1
			}
		}
	}
	return g
}

// normalize divides v by the gcd of its entries (leaving sign intact) and
// returns the canonical-tier result: exact-tier rows whose entries all fit
// a machine word are demoted, so equal rows always land on the same tier.
// It writes v's entries; normalized is the copy-on-write form.
func (v vec) normalize() vec {
	if v.xs == nil {
		normalizeWords(v.w)
		return v
	}
	sc := getScratch()
	g, t := sc.t[0], sc.t[1]
	g.SetInt64(0)
	for i := range v.xs {
		if v.xs[i].Sign() != 0 {
			g.GCD(nil, nil, g.Abs(g), t.Abs(v.xs[i]))
		}
	}
	if g.Sign() != 0 && g.Cmp(bigOne) != 0 {
		for i := range v.xs {
			v.xs[i].Quo(v.xs[i], g)
		}
	}
	putScratch(sc)
	return v.demoted()
}

// normalizeWords divides the machine-tier entries w by their gcd in place
// and reports whether that changed them.
func normalizeWords(w []int64) bool {
	g := gcdWords(w)
	if g <= 1 {
		return false
	}
	if g > math.MaxInt64 {
		// Every nonzero entry is MinInt64 (|MinInt64| = 2^63): the
		// quotient is -1.
		for i := range w {
			if w[i] != 0 {
				w[i] = -1
			}
		}
		return true
	}
	d := int64(g)
	for i := range w {
		w[i] /= d
	}
	return true
}

// normalized is normalize without writing v: a machine-tier v whose
// entries have gcd at most 1 is returned as is, any other v (exact-tier
// vectors, which are rare, included) as a normalized copy.
func (v vec) normalized() vec {
	if v.xs == nil && gcdWords(v.w) <= 1 {
		return v
	}
	return v.clone().normalize()
}

// combineWords writes ka*a + kb*b, normalized, into dst and reports
// whether every product and sum fitted a machine word. On overflow dst
// holds a partial result and the combination must be replayed on the
// exact tier (combineBig); dst may not alias a or b.
func combineWords(dst []int64, ka int64, a []int64, kb int64, b []int64) bool {
	b = b[:len(a)]
	dst = dst[:len(a)]
	smallK := small(ka) && small(kb)
	for i, av := range a {
		bv := b[i]
		var x, y int64
		if smallK && small(av) && small(bv) {
			x, y = ka*av, kb*bv
		} else {
			var ok bool
			if av != 0 {
				if x, ok = numkernel.MulOK(ka, av); !ok {
					return false
				}
			}
			if bv != 0 {
				if y, ok = numkernel.MulOK(kb, bv); !ok {
					return false
				}
			}
		}
		var ok bool
		if dst[i], ok = numkernel.AddOK(x, y); !ok {
			return false
		}
	}
	normalizeWords(dst)
	return true
}

// combineBig is the exact-tier linear combination.
func combineBig(ka scalar, a vec, kb scalar, b vec) vec {
	sc := getScratch()
	bka := ka.bigRef(sc.t[0])
	bkb := kb.bigRef(sc.t[1])
	t, tv := sc.t[2], sc.t[3]
	n := a.dim()
	r := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		az, bz := a.sign(i) == 0, b.sign(i) == 0
		switch {
		case az && bz:
			r[i] = new(big.Int)
		case bz:
			r[i] = new(big.Int).Mul(bka, a.bigRef(i, tv))
		case az:
			r[i] = new(big.Int).Mul(bkb, b.bigRef(i, tv))
		default:
			r[i] = new(big.Int).Mul(bka, a.bigRef(i, tv))
			t.Mul(bkb, b.bigRef(i, tv))
			r[i].Add(r[i], t)
		}
	}
	putScratch(sc)
	return vec{xs: r, pure: a.pure || b.pure}.normalize()
}

var (
	bigOne = big.NewInt(1)
)

// scratch is pooled working storage for the exact-tier paths, the key
// builder, row dedup, a row's nonzero index and the vectors an operation
// drops once the dual conversion has read them (words, vecs), so the hot
// loops allocate only their results.
type scratch struct {
	t     [4]*big.Int
	key   []byte
	set   vecSet
	nz    []int
	words []int64
	vecs  []vec
}

var scratchPool = sync.Pool{New: func() any {
	s := &scratch{}
	for i := range s.t {
		s.t[i] = new(big.Int)
	}
	return s
}}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) {
	s.key, s.words = s.key[:0], s.words[:0]
	scratchPool.Put(s)
}

// vec returns a zero vector of length n held in the scratch words until
// the scratch goes back to the pool; a pure one is allocated.
func (s *scratch) vec(n int, pure bool) vec {
	if pure {
		return newVec(n, true)
	}
	k := len(s.words)
	s.words = extend(s.words, n)
	w := s.words[k : k+n : k+n]
	clear(w)
	return vec{w: w}
}

// bitset is a saturation row: bit i is set when the ray saturates
// constraint i. A cone's rows all have the length its constraint count
// needs (cone.nw words), so no operation grows one.
type bitset []uint64

func (b bitset) set(i int) { b[i/64] |= 1 << uint(i%64) }

func (b bitset) unset(i int) { b[i/64] &^= 1 << uint(i%64) }

// subsetOf reports whether every bit of b is set in c, of b's length.
func (b bitset) subsetOf(c bitset) bool {
	for i := range b {
		if b[i]&^c[i] != 0 {
			return false
		}
	}
	return true
}

// extend returns s lengthened by n elements, whose values are unset. When
// s must move, its capacity at least doubles, so a slab that grows from
// empty to k elements allocates fewer than 2k in all.
func extend[T int64 | uint64](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(n, cap(s)))
	}
	return s[:len(s)+n]
}
