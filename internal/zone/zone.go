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
// few cache lines and nothing cheaper exists. Closure is incremental
// whenever possible: a closed matrix that was tightened at a handful of
// cells is repaired in O(n²) per edge instead of re-running the O(n³)
// Floyd–Warshall loop, and an already-closed matrix is never re-closed.
// The PureBig reference kernel opts out of both optimizations, so the
// differential fuzzers check them against plain full-closure semantics.
package zone

import (
	"math"
	"math/big"
	"strings"

	"repro/internal/budget"
	"repro/internal/linear"
	"repro/internal/numkernel"
)

// noBound is the machine-tier +infinity sentinel. A genuine bound equal to
// math.MaxInt64 forces promotion to the exact tier, keeping the sentinel
// unambiguous; conveniently, the sentinel is the maximum, so pointwise
// min/max and comparisons treat it as +infinity with no special casing.
const noBound = math.MaxInt64

// maxDirty caps the number of tightened edges the incremental closure
// will repair one by one; past it a full closure is cheaper.
const maxDirty = 8

// DBM is a difference-bound matrix over n variables plus the designated
// zero variable (index 0): the matrix bounds x_i - x_j <= m[i][j], with x_0
// identically 0. Exactly one tier is active: the machine-word matrix mw
// (noBound = +inf) or the exact matrix mx (nil entry = +inf). cfg carries
// per-run knobs (budget token, kernel tier, arena); nil means defaults.
type DBM struct {
	n     int // number of program variables
	mw    [][]int64
	mx    [][]*big.Int
	empty bool
	// closed marks the matrix as shortest-path closed (canonical), so
	// repeated close() calls cost nothing. Never set under PureBig: the
	// reference kernel recomputes the full closure every time.
	closed bool
	// dirty, when non-nil, lists the cells tightened since the matrix
	// was last closed, oldest first; close() then repairs incrementally
	// instead of re-running Floyd–Warshall. nil with closed unset means
	// the delta is unknown and only a full closure restores canonicity.
	dirty [][2]int32
	cfg   *Config
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

// promote moves d onto the exact tier (no-op if already there). Dense
// rows are returned to the arena: the exact matrix copies their values.
func (d *DBM) promote() {
	if d.mx != nil {
		return
	}
	size := d.n + 1
	mx := make([][]*big.Int, size)
	for i := range mx {
		mx[i] = make([]*big.Int, size)
	}
	ar := d.cfg.ar()
	for i, r := range d.mw {
		for j, x := range r {
			if x != noBound {
				mx[i][j] = big.NewInt(x)
			}
		}
		ar.PutInt64s(r)
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
	ar := d.cfg.ar()
	mw := make([][]int64, len(d.mx))
	for i, r := range d.mx {
		wr := ar.Int64s(len(r))
		for j, x := range r {
			if x == nil {
				wr[j] = noBound
			} else {
				wr[j] = x.Int64()
			}
		}
		mw[i] = wr
	}
	d.mw = mw
	d.mx = nil
}

// Clone returns a deep copy.
func (d *DBM) Clone() *DBM {
	c := &DBM{n: d.n, empty: d.empty, closed: d.closed, cfg: d.cfg}
	if d.dirty != nil {
		c.dirty = append(make([][2]int32, 0, len(d.dirty)), d.dirty...)
	}
	if d.mw != nil {
		ar := d.cfg.ar()
		c.mw = make([][]int64, len(d.mw))
		for i, r := range d.mw {
			nr := ar.Int64s(len(r))
			copy(nr, r)
			c.mw[i] = nr
		}
	} else {
		c.mx = make([][]*big.Int, len(d.mx))
		for i, r := range d.mx {
			br := make([]*big.Int, len(r))
			for j, x := range r {
				if x != nil {
					br[j] = new(big.Int).Set(x)
				}
			}
			c.mx[i] = br
		}
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

// noteTighten records that cell (i, j) was tightened, invalidating the
// closed flag and growing the incremental-repair worklist. The PureBig
// reference never has closed set and never carries a dirty list, so it
// always takes the full-closure path.
func (d *DBM) noteTighten(i, j int) {
	if d.closed {
		d.closed = false
		d.dirty = append(d.dirty[:0], [2]int32{int32(i), int32(j)})
		return
	}
	if d.dirty == nil {
		return
	}
	if len(d.dirty) >= maxDirty {
		d.dirty = nil
		return
	}
	d.dirty = append(d.dirty, [2]int32{int32(i), int32(j)})
}

// close computes the shortest-path closure (canonical form) and detects
// negative cycles (emptiness). An already-closed matrix returns
// immediately; a closed matrix tightened at a few recorded cells is
// repaired incrementally (O(n²) per edge) instead of re-running the full
// O(n³) Floyd–Warshall loop — sequential single-edge repairs compose to
// the exact canonical closure (DESIGN.md §9).
func (d *DBM) close() {
	if d.empty || d.closed {
		return
	}
	tok := d.cfg.token()
	if tok.Exhausted() {
		// Budget exhausted: skip the closure. The matrix keeps valid
		// (possibly loose) bounds, so every later query sees a sound
		// over-approximation of the canonical form; a negative cycle may
		// go undetected, which errs toward "maybe non-empty" — also
		// sound. A pending dirty list is kept, so a later close can
		// still repair incrementally.
		return
	}
	if d.dirty != nil && d.mx == nil {
		if d.repairAll(tok) {
			return
		}
		// A repair overflowed the machine tier. The tightenings already
		// written are valid path bounds, so the full closure below
		// converges to the same canonical matrix.
	}
	d.dirty = nil
	d.closeFull()
}

// repairAll incrementally restores closure after the recorded dirty
// tightenings. It reports false when a machine-tier overflow forces the
// caller onto the full-closure path. On success the matrix is canonical
// — or empty, or (when the budget runs out mid-repair) a valid unclosed
// matrix with the unrepaired edges still queued.
func (d *DBM) repairAll(tok *budget.Token) bool {
	for k := range d.dirty {
		if k > 0 && tok.Exhausted() {
			d.dirty = d.dirty[k:]
			return true
		}
		if !d.repairDense(int(d.dirty[k][0]), int(d.dirty[k][1])) {
			return false
		}
		if d.empty {
			d.dirty = nil
			return true
		}
	}
	d.dirty = nil
	d.closed = true
	return true
}

// repairDense restores closure after the single tightening at (a, b):
// with the prior matrix closed, the new canonical form is
// m[i][j] = min(m[i][j], d(i,a) + m[a][b] + d(b,j)), where d(x,x) = 0.
// A path may use the new edge at most once unless it closes a negative
// cycle, which is detected up front (m[a][b] + m[b][a] < 0 ⇒ empty).
func (d *DBM) repairDense(a, b int) bool {
	m := d.mw
	c := m[a][b]
	if c == noBound {
		// The tightened cell was since forgotten (Havoc after a skipped
		// closure); nothing to propagate.
		return true
	}
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
	ar := d.cfg.ar()
	// Snapshot column a and row b: the repair loop writes into arbitrary
	// cells, including these.
	colA := ar.Int64s(size)
	rowB := ar.Int64s(size)
	for i := 0; i < size; i++ {
		colA[i] = m[i][a]
	}
	copy(rowB, m[b])
	colA[a] = 0
	rowB[b] = 0
	ok := true
	for i := 0; i < size && ok; i++ {
		ia := colA[i]
		if ia == noBound {
			continue
		}
		via, vok := numkernel.AddOK(ia, c)
		if !vok {
			ok = false
			break
		}
		ri := m[i]
		for j := 0; j < size; j++ {
			bj := rowB[j]
			if bj == noBound {
				continue
			}
			s, sok := numkernel.AddOK(via, bj)
			if !sok || s == noBound {
				ok = false
				break
			}
			if s < ri[j] {
				ri[j] = s
			}
		}
	}
	ar.PutInt64s(colA)
	ar.PutInt64s(rowB)
	return ok
}

// closeFull runs the complete Floyd–Warshall closure on whichever tier
// holds the matrix, promoting on overflow and demoting afterwards.
func (d *DBM) closeFull() {
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
// 0 for the zero var).
func (d *DBM) setBound(i, j int, c *big.Int) {
	if d.mx == nil {
		if c.IsInt64() {
			if cv := c.Int64(); cv != noBound {
				if cv < d.mw[i][j] {
					d.mw[i][j] = cv
					d.noteTighten(i, j)
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
		d.noteTighten(i, j)
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
// ignored.
func (d *DBM) MeetConstraint(c linear.Constraint) *DBM {
	out := d.Clone()
	if out.empty {
		return out
	}
	apply := func(e linear.Expr) {
		vars := e.Vars()
		switch len(vars) {
		case 0:
			if e.Const().Sign() < 0 {
				out.empty = true
			}
		case 1:
			v := vars[0]
			k := e.Coef(v)
			// k*x + c >= 0
			if k.Cmp(bigOne) == 0 {
				// x >= -c: 0 - x <= c
				out.setBound(0, v+1, e.Const())
			} else if k.Cmp(bigMinusOne) == 0 {
				// x <= c
				out.setBound(v+1, 0, e.Const())
			}
		case 2:
			a, b := vars[0], vars[1]
			ka, kb := e.Coef(a), e.Coef(b)
			switch {
			case ka.Cmp(bigOne) == 0 && kb.Cmp(bigMinusOne) == 0:
				// x_a - x_b + c >= 0: x_b - x_a <= c
				out.setBound(b+1, a+1, e.Const())
			case ka.Cmp(bigMinusOne) == 0 && kb.Cmp(bigOne) == 0:
				out.setBound(a+1, b+1, e.Const())
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

// Join returns the pointwise maximum of closed forms.
func (d *DBM) Join(o *DBM) *DBM {
	if d.IsEmpty() {
		return o.Clone()
	}
	if o.IsEmpty() {
		return d.Clone()
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
					out.mx[i][j] = new(big.Int).Set(d.mx[i][j])
				} else {
					out.mx[i][j] = new(big.Int).Set(o.mx[i][j])
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

// Widen drops bounds not stable between d (previous) and o (next). The
// result is deliberately left unclosed: closing a widening result can
// defeat termination.
func (d *DBM) Widen(o *DBM) *DBM {
	if d.IsEmpty() {
		return o.Clone()
	}
	if o.IsEmpty() {
		return d.Clone()
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
				out.mx[i][j] = new(big.Int).Set(d.mx[i][j])
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

// Havoc forgets variable v.
func (d *DBM) Havoc(v int) *DBM {
	out := d.Clone()
	if out.empty {
		return out
	}
	out.close()
	if out.empty {
		return out
	}
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
		return d.cfg.Bottom(d.n)
	}
	vars := e.Vars()
	// v := v + c: shift bounds (an exact translation, closure-preserving).
	if len(vars) == 1 && vars[0] == v && e.Coef(v).Cmp(bigOne) == 0 {
		out := d.Clone()
		out.close()
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
	// General: forget v, then constrain when the shape allows. The new
	// bounds land on a closed matrix, so close() repairs incrementally.
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
