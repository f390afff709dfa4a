// Package interval implements the classic interval abstract domain as a
// cheap alternative to convex polyhedra. The paper (§3.5) notes that "in
// theory, any sound integer analysis can be used" but chooses linear
// relation analysis because the tracked properties are relational; the
// domain-ablation benchmark quantifies exactly how much precision interval
// analysis loses on the Table 5 suites.
package interval

import (
	"fmt"
	"math/big"
	"strings"

	"repro/internal/linear"
)

// Itv is a (possibly unbounded) integer interval. Nil bounds denote
// infinities.
type Itv struct {
	Lo, Hi *big.Int // nil = -inf / +inf
}

func (i Itv) isTop() bool { return i.Lo == nil && i.Hi == nil }

func (i Itv) isEmpty() bool {
	return i.Lo != nil && i.Hi != nil && i.Lo.Cmp(i.Hi) > 0
}

func (i Itv) String() string {
	lo, hi := "-inf", "+inf"
	if i.Lo != nil {
		lo = i.Lo.String()
	}
	if i.Hi != nil {
		hi = i.Hi.String()
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

// Box is a product of intervals over n variables. A nil vars slice with
// empty=true is the bottom element. A box an operation returns is never
// written afterwards, so operations share their operands: an operation
// on an empty box returns it, and a join or widening with an empty
// operand returns the other box.
type Box struct {
	vars  []Itv
	empty bool
}

// Universe returns the unconstrained box.
func Universe(n int) *Box { return &Box{vars: make([]Itv, n)} }

// Bottom returns the empty box.
func Bottom(n int) *Box { return &Box{empty: true} }

// Clone returns a deep copy.
func (b *Box) Clone() *Box {
	c := &Box{vars: make([]Itv, len(b.vars)), empty: b.empty}
	copy(c.vars, b.vars)
	return c
}

// IsEmpty reports whether the box is empty.
func (b *Box) IsEmpty() bool { return b.empty }

// Var returns the interval of variable v, and an empty interval when the
// box is empty.
func (b *Box) Var(v int) Itv {
	if b.empty {
		return Itv{Lo: big.NewInt(1), Hi: new(big.Int)}
	}
	return b.vars[v]
}

func maxB(a, b *big.Int) *big.Int {
	if a == nil || b == nil {
		return nil
	}
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

func minB(a, b *big.Int) *big.Int {
	if a == nil || b == nil {
		return nil
	}
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// Join returns the smallest box containing both. With an empty operand
// it returns the other box itself: no operation writes a box it did not
// create (MeetConstraint, Assign and Havoc clone a non-empty box first).
func (b *Box) Join(o *Box) *Box {
	if b.empty {
		return o
	}
	if o.empty {
		return b
	}
	out := Universe(len(b.vars))
	for i := range b.vars {
		var lo, hi *big.Int
		if b.vars[i].Lo != nil && o.vars[i].Lo != nil {
			lo = minB(b.vars[i].Lo, o.vars[i].Lo)
		}
		if b.vars[i].Hi != nil && o.vars[i].Hi != nil {
			hi = maxB(b.vars[i].Hi, o.vars[i].Hi)
		}
		out.vars[i] = Itv{Lo: lo, Hi: hi}
	}
	return out
}

// Widen drops unstable bounds. Like Join, it returns the other box itself
// when one operand is empty.
func (b *Box) Widen(o *Box) *Box {
	if b.empty {
		return o
	}
	if o.empty {
		return b
	}
	out := Universe(len(b.vars))
	for i := range b.vars {
		lo := b.vars[i].Lo
		if lo != nil && (o.vars[i].Lo == nil || o.vars[i].Lo.Cmp(lo) < 0) {
			lo = nil
		}
		hi := b.vars[i].Hi
		if hi != nil && (o.vars[i].Hi == nil || o.vars[i].Hi.Cmp(hi) > 0) {
			hi = nil
		}
		out.vars[i] = Itv{Lo: lo, Hi: hi}
	}
	return out
}

// Includes reports whether o is contained in b.
func (b *Box) Includes(o *Box) bool {
	if o.empty {
		return true
	}
	if b.empty {
		return false
	}
	for i := range b.vars {
		if b.vars[i].Lo != nil && (o.vars[i].Lo == nil || o.vars[i].Lo.Cmp(b.vars[i].Lo) < 0) {
			return false
		}
		if b.vars[i].Hi != nil && (o.vars[i].Hi == nil || o.vars[i].Hi.Cmp(b.vars[i].Hi) > 0) {
			return false
		}
	}
	return true
}

// evalRange returns interval bounds of a linear expression over the box.
func (b *Box) evalRange(e linear.Expr) Itv {
	lo := new(big.Int).Set(e.Const())
	hi := new(big.Int).Set(e.Const())
	loOK, hiOK := true, true
	for _, v := range e.Vars() {
		k := e.Coef(v)
		iv := b.vars[v]
		var tLo, tHi *big.Int
		if k.Sign() > 0 {
			if iv.Lo != nil {
				tLo = new(big.Int).Mul(k, iv.Lo)
			}
			if iv.Hi != nil {
				tHi = new(big.Int).Mul(k, iv.Hi)
			}
		} else {
			if iv.Hi != nil {
				tLo = new(big.Int).Mul(k, iv.Hi)
			}
			if iv.Lo != nil {
				tHi = new(big.Int).Mul(k, iv.Lo)
			}
		}
		if tLo == nil {
			loOK = false
		} else if loOK {
			lo.Add(lo, tLo)
		}
		if tHi == nil {
			hiOK = false
		} else if hiOK {
			hi.Add(hi, tHi)
		}
	}
	out := Itv{}
	if loOK {
		out.Lo = lo
	}
	if hiOK {
		out.Hi = hi
	}
	return out
}

// MeetConstraint refines the box with e >= 0 or e == 0 by bound
// propagation on each variable.
func (b *Box) MeetConstraint(c linear.Constraint) *Box {
	if b.empty {
		return b
	}
	out := b.Clone()
	apply := func(cc linear.Constraint) {
		// cc: sum k_i x_i + d >= 0. For each variable x_j:
		// k_j x_j >= -(d + sum_{i!=j} k_i x_i); bound using ranges of the
		// rest.
		for _, j := range cc.E.Vars() {
			kj := cc.E.Coef(j)
			rest := cc.E.Subst(j, linear.Expr{})
			r := out.evalRange(rest)
			// k_j x_j >= -rest. Upper bound of -rest needs Hi of rest.
			if r.Hi == nil {
				continue
			}
			bound := new(big.Int).Neg(r.Hi) // k_j x_j >= bound
			iv := out.vars[j]
			if kj.Sign() > 0 {
				// x_j >= ceil(bound / k_j)
				q := ceilDiv(bound, kj)
				if iv.Lo == nil || q.Cmp(iv.Lo) > 0 {
					iv.Lo = q
				}
			} else {
				// x_j <= floor(bound / k_j) with k_j < 0
				q := floorDiv(bound, kj)
				if iv.Hi == nil || q.Cmp(iv.Hi) < 0 {
					iv.Hi = q
				}
			}
			out.vars[j] = iv
			if iv.isEmpty() {
				out.empty = true
				return
			}
		}
		// Constant check.
		if len(cc.E.Vars()) == 0 && cc.E.Const().Sign() < 0 {
			out.empty = true
		}
	}
	apply(c)
	if c.Rel == linear.Eq && !out.empty {
		apply(linear.Constraint{E: c.E.Scale(-1), Rel: linear.Ge})
	}
	return out
}

// Assign sets v to the range of e.
func (b *Box) Assign(v int, e linear.Expr) *Box {
	if b.empty {
		return b
	}
	out := b.Clone()
	out.vars[v] = out.evalRange(e)
	return out
}

// Havoc forgets v.
func (b *Box) Havoc(v int) *Box {
	if b.empty {
		return b
	}
	out := b.Clone()
	out.vars[v] = Itv{}
	return out
}

// Entails reports whether every point of the box satisfies c.
func (b *Box) Entails(c linear.Constraint) bool {
	if b.empty {
		return true
	}
	r := b.evalRange(c.E)
	if c.Rel == linear.Eq {
		return r.Lo != nil && r.Hi != nil && r.Lo.Sign() == 0 && r.Hi.Sign() == 0
	}
	return r.Lo != nil && r.Lo.Sign() >= 0
}

var bigOne, bigMinusOne = big.NewInt(1), big.NewInt(-1)

// System renders the box as bound constraints.
func (b *Box) System() linear.System {
	var sys linear.System
	if b.empty {
		return linear.System{linear.NewGe(linear.ConstExpr(-1))}
	}
	for v, iv := range b.vars {
		if iv.Lo != nil { // x - lo >= 0
			lo := new(big.Int).Neg(iv.Lo)
			sys = append(sys, linear.NewGe(linear.NewExpr(lo, linear.Term{V: v, K: bigOne})))
		}
		if iv.Hi != nil { // hi - x >= 0
			sys = append(sys, linear.NewGe(linear.NewExpr(iv.Hi, linear.Term{V: v, K: bigMinusOne})))
		}
	}
	return sys
}

// Bounds returns the tightest [lo, hi] interval of variable v; nil
// pointers denote unboundedness.
func (b *Box) Bounds(v int) (lo, hi *big.Rat) {
	if b.empty || v < 0 || v >= len(b.vars) {
		return nil, nil
	}
	iv := b.vars[v]
	if iv.Lo != nil {
		lo = new(big.Rat).SetInt(iv.Lo)
	}
	if iv.Hi != nil {
		hi = new(big.Rat).SetInt(iv.Hi)
	}
	return lo, hi
}

// Sample returns a contained point (preferring bounds, else zero).
func (b *Box) Sample() []*big.Rat {
	if b.empty {
		return nil
	}
	pt := make([]*big.Rat, len(b.vars))
	for v, iv := range b.vars {
		switch {
		case iv.Lo != nil:
			pt[v] = new(big.Rat).SetInt(iv.Lo)
		case iv.Hi != nil:
			pt[v] = new(big.Rat).SetInt(iv.Hi)
		default:
			pt[v] = new(big.Rat)
		}
	}
	return pt
}

// String renders nontrivial intervals.
func (b *Box) String(sp *linear.Space) string {
	if b.empty {
		return "false"
	}
	var parts []string
	for v, iv := range b.vars {
		if iv.isTop() {
			continue
		}
		name := fmt.Sprintf("v%d", v)
		if sp != nil {
			name = sp.Name(v)
		}
		parts = append(parts, fmt.Sprintf("%s in %s", name, iv))
	}
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, " && ")
}

func ceilDiv(a, b *big.Int) *big.Int {
	q, r := new(big.Int).QuoRem(a, b, new(big.Int))
	// Want ceil(a/b): Quo truncates toward zero.
	if r.Sign() != 0 && (a.Sign() > 0) == (b.Sign() > 0) {
		q.Add(q, big.NewInt(1))
	}
	return q
}

func floorDiv(a, b *big.Int) *big.Int {
	q, r := new(big.Int).QuoRem(a, b, new(big.Int))
	if r.Sign() != 0 && (a.Sign() > 0) != (b.Sign() > 0) {
		q.Sub(q, big.NewInt(1))
	}
	return q
}
