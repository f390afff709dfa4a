// Package zone implements the zone (difference-bound matrix) abstract
// domain: conjunctions of constraints of the forms x - y <= c, x <= c and
// -x <= c. It sits between intervals and polyhedra in the precision/cost
// spectrum and exists for the paper's "any sound integer analysis can be
// used" ablation (§3.5).
//
// Like the polyhedra substrate, the DBM is two-tiered: bounds live in a
// machine-word (int64) tier, with math.MaxInt64 as the +infinity sentinel,
// and the whole matrix promotes to the exact big.Int tier when an
// operation would overflow — or produce the sentinel value — so results
// are bit-identical to pure arbitrary-precision arithmetic. Closures
// computed on the exact tier demote back when every bound fits a machine
// word again.
//
// The machine tier has one representation, a dense (n+1)×(n+1) matrix:
// zone programs have tens of variables at most, where a dense row is a
// few cache lines and nothing cheaper exists. Closure is repaired on
// write: tightening one cell of a closed matrix restores closure in
// O(n²) on the spot instead of leaving the O(n³) Floyd–Warshall loop to
// the next query, and an already-closed matrix is never re-closed. The
// PureBig reference kernel opts out of both optimizations, so the
// differential fuzzers check them against plain full-closure semantics.
//
// Ownership follows the rule of the other domains (DESIGN.md §9.2): a DBM
// an operation returns is never written afterwards, except to close it in
// place or to move it between tiers. Both preserve the set it denotes, and
// Key ignores the tier. So operations share their operands: a join or
// widening with an empty operand returns the other operand itself, an
// operation on an empty DBM returns it, and a meet that tightens nothing
// returns its receiver. Only an operation that writes a matrix copies one.
package zone

import (
	"math"
	"math/big"
	"strings"

	"repro/internal/linear"
	"repro/internal/numkernel"
)

// noBound is the machine-tier +infinity sentinel. A genuine bound equal to
// math.MaxInt64 forces promotion to the exact tier, keeping the sentinel
// unambiguous; conveniently, the sentinel is the maximum, so pointwise
// min/max and comparisons treat it as +infinity with no special casing.
const noBound = math.MaxInt64

// DBM is a difference-bound matrix over n variables plus the designated
// zero variable (index 0): the matrix bounds x_i - x_j <= m[i][j], with x_0
// identically 0. Exactly one tier is active: the machine-word matrix mw
// (noBound = +inf) or the exact matrix mx (nil entry = +inf), unless the
// DBM came from Bottom, which holds neither. An exact cell is never
// written in place, only replaced, so copies share them. cfg carries
// per-run knobs (budget token, kernel tier); nil means defaults.
type DBM struct {
	n     int // number of program variables
	mw    [][]int64
	mx    [][]*big.Int
	empty bool
	// closed marks the matrix as shortest-path closed (canonical), so
	// repeated close() calls cost nothing. Never set under PureBig: the
	// reference kernel recomputes the full closure every time.
	closed bool
	cfg    *Config
}

// Universe returns the unconstrained zone with default configuration.
func Universe(n int) *DBM {
	return (*Config)(nil).Universe(n)
}

// Bottom returns the empty zone with default configuration.
func Bottom(n int) *DBM {
	return (*Config)(nil).Bottom(n)
}

// cfgOr returns the receiver's Config, falling back to o's when unset.
func (d *DBM) cfgOr(o *DBM) *Config {
	if d.cfg != nil {
		return d.cfg
	}
	return o.cfg
}

// promote moves d onto the exact tier (no-op if already there).
func (d *DBM) promote() {
	if d.mx != nil {
		return
	}
	mx := make([][]*big.Int, len(d.mw))
	for i, r := range d.mw {
		mx[i] = make([]*big.Int, len(r))
		for j, x := range r {
			if x != noBound {
				mx[i][j] = big.NewInt(x)
			}
		}
	}
	d.mw = nil
	d.mx = mx
}

// demote moves d back to the machine tier when every bound fits (a bound
// exactly equal to the sentinel value must stay exact).
func (d *DBM) demote() {
	if d.mx == nil || d.cfg.pure() {
		return
	}
	for _, r := range d.mx {
		for _, x := range r {
			if x != nil && (!x.IsInt64() || x.Int64() == noBound) {
				return
			}
		}
	}
	mw := denseRows(len(d.mx))
	for i, r := range d.mx {
		for j, x := range r {
			if x == nil {
				mw[i][j] = noBound
			} else {
				mw[i][j] = x.Int64()
			}
		}
	}
	d.mw = mw
	d.mx = nil
}

// clone returns a DBM over a fresh matrix with d's cells, for an operation
// to write. d must hold a matrix (it is not a Bottom header).
func (d *DBM) clone() *DBM {
	c := &DBM{n: d.n, empty: d.empty, closed: d.closed, cfg: d.cfg}
	if d.mw != nil {
		c.mw = denseRows(len(d.mw))
		for i, r := range d.mw {
			copy(c.mw[i], r)
		}
		return c
	}
	c.mx = make([][]*big.Int, len(d.mx))
	for i, r := range d.mx {
		c.mx[i] = append([]*big.Int(nil), r...)
	}
	return c
}

// IsEmpty reports whether the zone has no points.
func (d *DBM) IsEmpty() bool {
	if d.empty {
		return true
	}
	d.close()
	return d.empty
}

// close computes the shortest-path closure (canonical form) and detects
// negative cycles (emptiness): the complete Floyd–Warshall loop on
// whichever tier holds the matrix, promoting on overflow and demoting
// afterwards. An already-closed matrix returns immediately, and setBound
// keeps a closed matrix closed when it can.
func (d *DBM) close() {
	if d.empty || d.closed {
		return
	}
	if d.cfg.token().Exhausted() {
		// Budget exhausted: skip the closure. The matrix keeps valid
		// (possibly loose) bounds, so every later query sees a sound
		// over-approximation of the canonical form; a negative cycle may
		// go undetected, which errs toward "maybe non-empty" — also
		// sound.
		return
	}
	if d.mw != nil {
		if d.closeFast() {
			for i := range d.mw {
				if d.mw[i][i] < 0 {
					d.empty = true
					return
				}
			}
			d.closed = true
			return
		}
		// An intermediate sum overflowed the machine tier. The partial
		// tightenings already written are valid path bounds, so re-running
		// the closure on the exact tier converges to the same canonical
		// shortest-path matrix.
		d.promote()
	}
	size := len(d.mx)
	for k := 0; k < size; k++ {
		for i := 0; i < size; i++ {
			if d.mx[i][k] == nil {
				continue
			}
			for j := 0; j < size; j++ {
				if d.mx[k][j] == nil {
					continue
				}
				sum := new(big.Int).Add(d.mx[i][k], d.mx[k][j])
				if d.mx[i][j] == nil || sum.Cmp(d.mx[i][j]) < 0 {
					d.mx[i][j] = sum
				}
			}
		}
	}
	for i := 0; i < size; i++ {
		if d.mx[i][i] != nil && d.mx[i][i].Sign() < 0 {
			d.empty = true
			return
		}
	}
	d.demote()
	if !d.cfg.pure() {
		d.closed = true
	}
}

// repairDense restores closure after the single tightening at (a, b) of a
// closed machine-tier matrix: the new canonical form is
// m[i][j] = min(m[i][j], d(i,a) + m[a][b] + d(b,j)), where d(x,x) = 0.
// A path may use the new edge at most once unless it closes a negative
// cycle, which is detected up front (m[a][b] + m[b][a] < 0 ⇒ empty). It
// reports false when a sum overflows the machine tier; the cells written
// so far are valid path bounds, so a full closure still converges to the
// canonical matrix.
func (d *DBM) repairDense(a, b int) bool {
	m := d.mw
	c := m[a][b]
	ba := int64(0)
	if a != b {
		ba = m[b][a]
	}
	if ba != noBound {
		s, ok := numkernel.AddOK(c, ba)
		if !ok {
			return false
		}
		if s < 0 {
			d.empty = true
			return true
		}
	}
	size := len(m)
	// Snapshot column a and row b: the repair loop writes into arbitrary
	// cells, including these.
	scratch := make([]int64, 2*size)
	colA, rowB := scratch[:size], scratch[size:]
	for i := 0; i < size; i++ {
		colA[i] = m[i][a]
	}
	copy(rowB, m[b])
	colA[a] = 0
	rowB[b] = 0
	for i := 0; i < size; i++ {
		ia := colA[i]
		if ia == noBound {
			continue
		}
		via, ok := numkernel.AddOK(ia, c)
		if !ok {
			return false
		}
		ri := m[i]
		for j := 0; j < size; j++ {
			bj := rowB[j]
			if bj == noBound {
				continue
			}
			s, ok := numkernel.AddOK(via, bj)
			if !ok || s == noBound {
				return false
			}
			if s < ri[j] {
				ri[j] = s
			}
		}
	}
	return true
}

// closeFast is the machine-tier Floyd–Warshall loop; it reports false when
// a sum overflows (or collides with the sentinel) and the caller must
// promote.
func (d *DBM) closeFast() bool {
	size := len(d.mw)
	for k := 0; k < size; k++ {
		krow := d.mw[k]
		for i := 0; i < size; i++ {
			ik := d.mw[i][k]
			if ik == noBound {
				continue
			}
			irow := d.mw[i]
			for j := 0; j < size; j++ {
				kj := krow[j]
				if kj == noBound {
					continue
				}
				sum, ok := numkernel.AddOK(ik, kj)
				if !ok || sum == noBound {
					return false
				}
				// The sentinel is the maximum int64, so this also replaces
				// +infinity entries.
				if sum < irow[j] {
					irow[j] = sum
				}
			}
		}
	}
	return true
}

// setBound tightens x_i - x_j <= c (indices are 1-based for variables,
// 0 for the zero var). A closed machine-tier matrix is repaired at once;
// on overflow, an exhausted budget or the exact tier it is left unclosed
// for the next close() to run the full closure.
func (d *DBM) setBound(i, j int, c *big.Int) {
	if d.mx == nil {
		if c.IsInt64() {
			if cv := c.Int64(); cv != noBound {
				if cv < d.mw[i][j] {
					d.mw[i][j] = cv
					d.closed = d.closed && !d.cfg.token().Exhausted() && d.repairDense(i, j)
				}
				return
			}
		} else if c.Sign() > 0 {
			// Looser than any machine bound: only tightens if the cell is
			// +infinity, and then it cannot be stored exactly.
			if d.mw[i][j] != noBound {
				return
			}
		}
		d.promote()
	}
	if d.mx[i][j] == nil || c.Cmp(d.mx[i][j]) < 0 {
		d.mx[i][j] = new(big.Int).Set(c)
		d.closed = false
	}
}

// cellBig returns the exact value of a cell, or nil for +infinity. The
// result must be treated as read-only; machine-tier reads allocate.
func (d *DBM) cellBig(i, j int) *big.Int {
	if d.mx == nil {
		x := d.mw[i][j]
		if x == noBound {
			return nil
		}
		return big.NewInt(x)
	}
	return d.mx[i][j]
}

// cellLE reports whether the cell is a finite bound <= c.
func (d *DBM) cellLE(i, j int, c *big.Int) bool {
	if d.mx == nil {
		x := d.mw[i][j]
		if x == noBound {
			return false
		}
		if c.IsInt64() {
			return x <= c.Int64()
		}
		return c.Sign() > 0 // |c| > MaxInt64, so x <= c iff c is positive
	}
	return d.mx[i][j] != nil && d.mx[i][j].Cmp(c) <= 0
}

// MeetConstraint refines with a linear constraint when it has zone shape
// (at most two unit-coefficient variables); other constraints are soundly
// ignored. A constraint that tightens no cell returns d itself.
func (d *DBM) MeetConstraint(c linear.Constraint) *DBM {
	if d.empty {
		return d
	}
	out := d
	// bound meets x_i - x_j <= k, copying d before the first write.
	bound := func(i, j int, k *big.Int) {
		if out.empty || out.cellLE(i, j, k) {
			return
		}
		if out == d {
			out = d.clone()
		}
		out.setBound(i, j, k)
	}
	apply := func(e linear.Expr) {
		vars := e.Vars()
		switch len(vars) {
		case 0:
			if e.Const().Sign() < 0 {
				out = d.cfg.Bottom(d.n)
			}
		case 1:
			v := vars[0]
			k := e.Coef(v)
			// k*x + c >= 0
			if k.Cmp(bigOne) == 0 {
				// x >= -c: 0 - x <= c
				bound(0, v+1, e.Const())
			} else if k.Cmp(bigMinusOne) == 0 {
				// x <= c
				bound(v+1, 0, e.Const())
			}
		case 2:
			a, b := vars[0], vars[1]
			ka, kb := e.Coef(a), e.Coef(b)
			switch {
			case ka.Cmp(bigOne) == 0 && kb.Cmp(bigMinusOne) == 0:
				// x_a - x_b + c >= 0: x_b - x_a <= c
				bound(b+1, a+1, e.Const())
			case ka.Cmp(bigMinusOne) == 0 && kb.Cmp(bigOne) == 0:
				bound(a+1, b+1, e.Const())
			}
		}
	}
	apply(c.E)
	if c.Rel == linear.Eq {
		apply(c.E.Scale(-1))
	}
	out.close()
	return out
}

var (
	bigOne      = big.NewInt(1)
	bigMinusOne = big.NewInt(-1)
)

// Join returns the pointwise maximum of closed forms. With an empty
// operand it returns the other operand itself.
func (d *DBM) Join(o *DBM) *DBM {
	if d.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return d
	}
	d.close()
	o.close()
	cfg := d.cfgOr(o)
	if d.mx == nil && o.mx == nil {
		out := cfg.newDense(d.n)
		for i := range out.mw {
			dr, or, outr := d.mw[i], o.mw[i], out.mw[i]
			for j := range outr {
				// max treats the sentinel (maximum value) as +infinity.
				if dr[j] >= or[j] {
					outr[j] = dr[j]
				} else {
					outr[j] = or[j]
				}
			}
		}
		out.closed = true
		return out
	}
	d.promote()
	o.promote()
	out := cfg.newExact(d.n)
	for i := range out.mx {
		for j := range out.mx[i] {
			if d.mx[i][j] != nil && o.mx[i][j] != nil {
				if d.mx[i][j].Cmp(o.mx[i][j]) >= 0 {
					out.mx[i][j] = d.mx[i][j]
				} else {
					out.mx[i][j] = o.mx[i][j]
				}
			}
		}
	}
	out.demote()
	if !cfg.pure() {
		out.closed = true
	}
	return out
}

// Widen drops bounds not stable between d (previous) and o (next). Like
// Join, it returns the other operand itself when one is empty. The result
// is left unclosed, but that is not what bounds the iteration: the
// fixpoint engine's next Join closes it in place (through IsEmpty) before
// the following Widen, so the left operand of every zone widening is
// closed, and widening closed left operands need not stabilize (Miné, "A
// New Numerical Abstract Domain Based on Difference-Bound Matrices",
// 2001). The engine's iteration cap (maxIterations) bounds it.
func (d *DBM) Widen(o *DBM) *DBM {
	if d.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return d
	}
	o.close()
	cfg := d.cfgOr(o)
	if d.mx == nil && o.mx == nil {
		out := cfg.newDense(d.n)
		for i := range out.mw {
			dr, or, outr := d.mw[i], o.mw[i], out.mw[i]
			for j := range outr {
				// o <= d with d finite implies o is finite too (the
				// sentinel is the maximum value).
				if dr[j] != noBound && or[j] <= dr[j] {
					outr[j] = dr[j]
				}
			}
		}
		return out
	}
	d.promote()
	o.promote()
	out := cfg.newExact(d.n)
	for i := range out.mx {
		for j := range out.mx[i] {
			if d.mx[i][j] != nil && o.mx[i][j] != nil && o.mx[i][j].Cmp(d.mx[i][j]) <= 0 {
				out.mx[i][j] = d.mx[i][j]
			}
		}
	}
	out.demote()
	return out
}

// Includes reports whether o is contained in d.
func (d *DBM) Includes(o *DBM) bool {
	if o.IsEmpty() {
		return true
	}
	if d.IsEmpty() {
		return false
	}
	d.close()
	o.close()
	if d.mx == nil && o.mx == nil {
		for i := range d.mw {
			dr, or := d.mw[i], o.mw[i]
			for j := range dr {
				// o's bound must be at least as tight; a sentinel in o
				// compares greater than any finite bound of d.
				if dr[j] != noBound && or[j] > dr[j] {
					return false
				}
			}
		}
		return true
	}
	d.promote()
	o.promote()
	for i := range d.mx {
		for j := range d.mx[i] {
			if d.mx[i][j] == nil {
				continue
			}
			if o.mx[i][j] == nil || o.mx[i][j].Cmp(d.mx[i][j]) > 0 {
				return false
			}
		}
	}
	return true
}

// dropNode forgets every bound involving matrix node i. Dropping edges
// of a closed matrix leaves it closed: the remaining direct bounds still
// dominate every remaining path.
func (d *DBM) dropNode(i int) {
	if d.mw != nil {
		for j := range d.mw {
			d.mw[i][j] = noBound
			d.mw[j][i] = noBound
		}
		return
	}
	for j := range d.mx {
		d.mx[i][j] = nil
		d.mx[j][i] = nil
	}
}

// Havoc forgets variable v. It returns a new matrix unless d is empty.
func (d *DBM) Havoc(v int) *DBM {
	if d.IsEmpty() {
		return d
	}
	out := d.clone()
	out.dropNode(v + 1)
	return out
}

// shiftNodeW translates matrix node i by c on the machine tier (row +c,
// column -c, diagonal untouched), verifying first that no cell overflows
// so a failed attempt leaves the matrix untouched for the exact replay.
func (d *DBM) shiftNodeW(i int, c int64) bool {
	m := d.mw
	for j := range m {
		if j == i {
			continue
		}
		if x := m[i][j]; x != noBound {
			if s, o := numkernel.AddOK(x, c); !o || s == noBound {
				return false
			}
		}
		if x := m[j][i]; x != noBound {
			if s, o := numkernel.SubOK(x, c); !o || s == noBound {
				return false
			}
		}
	}
	for j := range m {
		if j == i {
			continue
		}
		if m[i][j] != noBound {
			m[i][j] += c
		}
		if m[j][i] != noBound {
			m[j][i] -= c
		}
	}
	return true
}

// shiftNodeX is the exact-tier node translation.
func (d *DBM) shiftNodeX(i int, c *big.Int) {
	for j := range d.mx {
		if j == i {
			continue
		}
		if d.mx[i][j] != nil {
			d.mx[i][j] = new(big.Int).Add(d.mx[i][j], c)
		}
		if d.mx[j][i] != nil {
			d.mx[j][i] = new(big.Int).Sub(d.mx[j][i], c)
		}
	}
}

// Assign over-approximates v := e. Exact for v := w + c and v := c; other
// right-hand sides degrade to havoc plus interval bounds when derivable.
func (d *DBM) Assign(v int, e linear.Expr) *DBM {
	if d.IsEmpty() {
		return d
	}
	vars := e.Vars()
	// v := v + c: shift bounds (an exact translation, closure-preserving).
	if len(vars) == 1 && vars[0] == v && e.Coef(v).Cmp(bigOne) == 0 {
		out := d.clone()
		i := v + 1
		if out.mx == nil && e.Const().IsInt64() {
			if out.shiftNodeW(i, e.Const().Int64()) {
				return out
			}
		}
		out.promote()
		out.shiftNodeX(i, e.Const())
		out.demote()
		return out
	}
	// General: forget v, then constrain when the shape allows. Havoc
	// returns a new closed matrix, which setBound repairs on each write.
	out := d.Havoc(v)
	if len(vars) == 0 {
		// v := c
		out.setBound(v+1, 0, e.Const())
		out.setBound(0, v+1, new(big.Int).Neg(e.Const()))
		out.close()
		return out
	}
	if len(vars) == 1 && vars[0] != v && e.Coef(vars[0]).Cmp(bigOne) == 0 {
		// v := w + c: v - w <= c and w - v <= -c.
		w := vars[0]
		out.setBound(v+1, w+1, e.Const())
		out.setBound(w+1, v+1, new(big.Int).Neg(e.Const()))
		out.close()
		return out
	}
	return out
}

// Entails reports whether every point satisfies c (only zone-shaped
// constraints can be entailed).
func (d *DBM) Entails(c linear.Constraint) bool {
	if d.IsEmpty() {
		return true
	}
	if c.IsTautology() {
		return true
	}
	d.close()
	check := func(e linear.Expr) bool {
		vars := e.Vars()
		switch len(vars) {
		case 0:
			return e.Const().Sign() >= 0
		case 1:
			v := vars[0]
			k := e.Coef(v)
			if k.Cmp(bigOne) == 0 {
				// need x >= -c, i.e. 0 - x <= c entailed
				return d.cellLE(0, v+1, e.Const())
			}
			if k.Cmp(bigMinusOne) == 0 {
				return d.cellLE(v+1, 0, e.Const())
			}
		case 2:
			a, b := vars[0], vars[1]
			ka, kb := e.Coef(a), e.Coef(b)
			if ka.Cmp(bigOne) == 0 && kb.Cmp(bigMinusOne) == 0 {
				return d.cellLE(b+1, a+1, e.Const())
			}
			if ka.Cmp(bigMinusOne) == 0 && kb.Cmp(bigOne) == 0 {
				return d.cellLE(a+1, b+1, e.Const())
			}
		}
		return false
	}
	if c.Rel == linear.Eq {
		return check(c.E) && check(c.E.Scale(-1))
	}
	return check(c.E)
}

// Key returns a canonical byte-string encoding of d's current matrix and
// whether one is available. Encodings are value-based and independent of
// the tier (a machine-word cell encodes exactly like the same value on
// the exact tier), so equal keys imply identical bound matrices and a
// memoized answer keyed by them is exact.
func (d *DBM) Key() (string, bool) {
	if d.empty {
		return "empty", true
	}
	key := numkernel.AppendKeyInt64(nil, int64(d.n))
	if d.mw != nil {
		for _, r := range d.mw {
			for _, x := range r {
				if x == noBound {
					key = append(key, 0x01)
				} else {
					key = numkernel.AppendKeyInt64(key, x)
				}
			}
		}
		return string(key), true
	}
	for _, r := range d.mx {
		for _, x := range r {
			if x == nil {
				key = append(key, 0x01)
			} else {
				key = numkernel.AppendKeyBig(key, x)
			}
		}
	}
	return string(key), true
}

// SameRepr reports whether o holds d's bound matrix by value, whatever
// the tiers: both empty, or the same dimension and equal cells (+infinity
// matching +infinity only). It holds exactly when the Keys are equal. It
// allocates only to read a machine-tier cell against an exact-tier one.
func (d *DBM) SameRepr(o *DBM) bool {
	if d.empty || o.empty || d.n != o.n {
		return d.empty && o.empty
	}
	for i := 0; i <= d.n; i++ {
		for j := 0; j <= d.n; j++ {
			if d.mx == nil && o.mx == nil {
				if d.mw[i][j] != o.mw[i][j] {
					return false
				}
				continue
			}
			x, y := d.cellBig(i, j), o.cellBig(i, j)
			if (x == nil) != (y == nil) || x != nil && x.Cmp(y) != 0 {
				return false
			}
		}
	}
	return true
}

// System renders the closed zone as linear constraints.
func (d *DBM) System() linear.System {
	var sys linear.System
	if d.IsEmpty() {
		return linear.System{linear.NewGe(linear.ConstExpr(-1))}
	}
	d.close()
	n := d.n + 1
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c := d.cellBig(i, j)
			if i == j || c == nil {
				continue
			}
			// x_i - x_j <= c  ==>  c - x_i + x_j >= 0
			terms := make([]linear.Term, 0, 2)
			if i > 0 {
				terms = append(terms, linear.Term{V: i - 1, K: bigMinusOne})
			}
			if j > 0 {
				terms = append(terms, linear.Term{V: j - 1, K: bigOne})
			}
			sys = append(sys, linear.NewGe(linear.NewExpr(c, terms...)))
		}
	}
	return sys
}

// Bounds returns the tightest [lo, hi] interval of variable v; nil
// pointers denote unboundedness.
func (d *DBM) Bounds(v int) (lo, hi *big.Rat) {
	if d.IsEmpty() || v < 0 || v >= d.n {
		return nil, nil
	}
	d.close()
	if c := d.cellBig(0, v+1); c != nil { // 0 - x <= c: x >= -c
		lo = new(big.Rat).SetInt(new(big.Int).Neg(c))
	}
	if c := d.cellBig(v+1, 0); c != nil { // x <= c
		hi = new(big.Rat).SetInt(c)
	}
	return lo, hi
}

// Sample returns a contained point (greedy, using lower bounds).
func (d *DBM) Sample() []*big.Rat {
	if d.IsEmpty() {
		return nil
	}
	d.close()
	pt := make([]*big.Rat, d.n)
	for v := 0; v < d.n; v++ {
		switch {
		case d.cellBig(0, v+1) != nil: // 0 - x <= c: x >= -c
			pt[v] = new(big.Rat).SetInt(new(big.Int).Neg(d.cellBig(0, v+1)))
		case d.cellBig(v+1, 0) != nil: // x <= c
			pt[v] = new(big.Rat).SetInt(d.cellBig(v+1, 0))
		default:
			pt[v] = new(big.Rat)
		}
	}
	return pt
}

// String renders the zone.
func (d *DBM) String(sp *linear.Space) string {
	if d.IsEmpty() {
		return "false"
	}
	sys := d.System()
	if len(sys) == 0 {
		return "true"
	}
	var parts []string
	for _, c := range sys {
		parts = append(parts, c.String(sp))
	}
	return strings.Join(parts, " && ")
}
