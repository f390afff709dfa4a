package c2ip

import (
	"fmt"
	"strings"

	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/ctypes"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/ppt"
)

// ExitLabel terminates the generated integer program.
const ExitLabel = "__ip_exit"

func (x *xform) stmt(s cast.Stmt) error {
	switch s := s.(type) {
	case *cast.Empty:
		return nil
	case *cast.Labeled:
		x.emit(&ip.Label{Name: s.Label})
		return nil
	case *cast.Goto:
		x.emit(&ip.Goto{Target: s.Label})
		return nil
	case *cast.Return:
		x.emit(&ip.Goto{Target: ExitLabel})
		return nil
	case *cast.Verify:
		return x.verify(s)
	case *cast.If:
		g, ok := s.Then.(*cast.Goto)
		if !ok {
			return fmt.Errorf("c2ip: non-CoreC if at %s", s.Pos())
		}
		return x.cond(s.Cond, g.Label)
	case *cast.ExprStmt:
		switch e := s.X.(type) {
		case *cast.Assign:
			return x.assignStmt(e)
		case *cast.Call:
			return x.callStmt("", e, e.Pos())
		}
	}
	return fmt.Errorf("c2ip: cannot translate %T at %s", s, s.Pos())
}

// ---------------------------------------------------------------------------
// Assignments

func (x *xform) assignStmt(a *cast.Assign) error {
	// Store through a pointer: *p = rhs.
	if u, ok := a.LHS.(*cast.Unary); ok && u.Op == cast.Deref {
		return x.store(u, a.RHS, a)
	}
	lhs, ok := a.LHS.(*cast.Ident)
	if !ok {
		return fmt.Errorf("c2ip: bad LHS at %s", a.Pos())
	}
	dst := x.atom(lhs)
	if !dst.hasCell {
		return x.err // unknown to the pointer analysis, or an unprojected global
	}
	weak := x.pt.Loc(dst.cell).Summary

	switch r := a.RHS.(type) {
	case *cast.IntLit:
		x.weakly(weak, func() {
			x.assign(x.valV(dst.cell), linear.ConstExpr(r.Value))
			if dst.isPointerish() {
				// p = 0 (or another literal address): offset untracked.
				x.setOffset(dst.cell, func(ppt.LocID) (linear.Expr, bool) {
					return linear.Expr{}, false
				})
			}
		})
		return nil
	case *cast.Ident:
		src := x.atom(r)
		x.weakly(weak, func() { x.copyCell(dst, src) })
		return nil
	case *cast.Unary:
		return x.assignUnary(dst, weak, r, a)
	case *cast.Binary:
		return x.assignBinary(dst, weak, r, a)
	case *cast.Cast:
		src := x.atom(r.X)
		x.weakly(weak, func() { x.castCell(dst, src, r.To) })
		return nil
	case *cast.Call:
		return x.callStmt(lhs.Name, r, a.Pos())
	}
	return fmt.Errorf("c2ip: bad RHS %T at %s", a.RHS, a.Pos())
}

// copyCell implements x = y for atoms.
func (x *xform) copyCell(dst, src aval) {
	if src.isRegionValued() {
		// Array decay: x points at src's base (a valid nonzero address).
		x.havoc(x.valV(dst.cell))
		x.assume(ip.Single(geConst(x.valV(dst.cell), 1)))
		x.setOffset(dst.cell, func(ppt.LocID) (linear.Expr, bool) {
			return linear.ConstExpr(0), true
		})
		return
	}
	if ve, ok := x.valExpr(src); ok {
		x.assign(x.valV(dst.cell), ve)
	} else {
		x.havoc(x.valV(dst.cell))
	}
	if dst.isPointerish() || src.isPointerish() {
		x.setOffset(dst.cell, func(region ppt.LocID) (linear.Expr, bool) {
			return x.offsetExpr(src, region)
		})
	}
}

// castCell implements x = (T)y: offsets survive pointer-to-pointer casts,
// values survive arithmetic casts, everything else becomes unknown
// (paper §3.4.2.3).
func (x *xform) castCell(dst, src aval, to ctypes.Type) {
	fromPtr := src.isPointerish() || src.isRegionValued()
	toPtr := ctypes.IsPointer(ctypes.Decay(to))
	if ve, ok := x.valExpr(src); ok && !src.isRegionValued() {
		x.assign(x.valV(dst.cell), ve)
	} else if src.isRegionValued() {
		x.havoc(x.valV(dst.cell))
		x.assume(ip.Single(geConst(x.valV(dst.cell), 1)))
	} else {
		x.havoc(x.valV(dst.cell))
	}
	switch {
	case fromPtr && toPtr:
		x.setOffset(dst.cell, func(region ppt.LocID) (linear.Expr, bool) {
			return x.offsetExpr(src, region)
		})
	case toPtr:
		// Integer reinterpreted as a pointer: unknown offset.
		x.setOffset(dst.cell, func(ppt.LocID) (linear.Expr, bool) {
			return linear.Expr{}, false
		})
	}
}

func (x *xform) assignUnary(dst aval, weak bool, u *cast.Unary, a *cast.Assign) error {
	switch u.Op {
	case cast.Deref:
		return x.load(dst, weak, u, a)
	case cast.Addr:
		x.weakly(weak, func() {
			x.havoc(x.valV(dst.cell))
			x.assume(ip.Single(geConst(x.valV(dst.cell), 1)))
			x.setOffset(dst.cell, func(ppt.LocID) (linear.Expr, bool) {
				return linear.ConstExpr(0), true
			})
		})
		return nil
	case cast.Neg:
		src := x.atom(u.X)
		x.weakly(weak, func() {
			if ve, ok := x.valExpr(src); ok {
				x.assign(x.valV(dst.cell), ve.Scale(-1))
			} else {
				x.havoc(x.valV(dst.cell))
			}
		})
		return nil
	case cast.LogNot:
		src := x.atom(u.X)
		x.weakly(weak, func() {
			ve, ok := x.valExpr(src)
			if !ok {
				x.havocBool(x.valV(dst.cell))
				return
			}
			x.choose(
				func() {
					x.assume(ip.Single(linear.NewEq(ve)))
					x.assign(x.valV(dst.cell), linear.ConstExpr(1))
				},
				func() {
					x.assume(relDNF(cast.Ne, ve, linear.ConstExpr(0)))
					x.assign(x.valV(dst.cell), linear.ConstExpr(0))
				},
			)
		})
		return nil
	default: // BitNot
		x.weakly(weak, func() { x.havoc(x.valV(dst.cell)) })
		return nil
	}
}

// load implements x = *p (Table 4, fourth row, refined per §2.4: reading at
// the null terminator yields 0; reading a null-terminated region strictly
// before its terminator yields nonzero; anything else is unknown).
func (x *xform) load(dst aval, weak bool, u *cast.Unary, a *cast.Assign) error {
	p := x.atom(u.X)
	if !p.hasCell {
		x.weakly(weak, func() { x.havocCell(dst.cell) })
		return nil
	}
	regions := x.regionsOf(p)
	elem := x.elemSize(p.typ)
	// Snapshot loads emitted by the contract inliner (__preN = *p) are
	// specification artifacts, not program accesses: no safety check.
	if !strings.HasPrefix(dst.name, "__pre") {
		x.emitDerefAsserts(p, regions, elem, true, a.Pos(), "read through *"+p.name)
		x.countLoad(p, regions)
	}

	if len(regions) == 0 {
		x.weakly(weak, func() { x.havocCell(dst.cell) })
		return nil
	}
	if x.bitfieldAccess(p.name) {
		// A bitfield load extracts bits from a storage unit whose abstract
		// value covers the whole unit: the result is unknown.
		x.weakly(weak, func() { x.havocCell(dst.cell) })
		return nil
	}

	loadFrom := func(r ppt.LocID) func() {
		return func() {
			if dst.isPointerish() {
				// The region cell holds a pointer: copy its tracked value.
				x.assign(x.valV(dst.cell), linear.VarExpr(x.valV(r)))
				x.setOffset(dst.cell, func(region ppt.LocID) (linear.Expr, bool) {
					return linear.VarExpr(x.offV(r, region)), true
				})
				return
			}
			if elem != 1 || !x.stringRegion(r) {
				// Word-sized or scalar-cell load: the value channel.
				x.assign(x.valV(dst.cell), linear.VarExpr(x.valV(r)))
				return
			}
			// Character load: interpret against the terminator.
			off, okOff := x.offsetExpr(p, r)
			nt := x.ntV(r)
			ln := x.lenV(r)
			if !okOff {
				x.havoc(x.valV(dst.cell))
				return
			}
			x.choose(
				func() { // at the terminator
					x.assume(ip.Conj(
						eqConst(nt, 1),
						linear.NewEq(linear.VarExpr(ln).Sub(off)),
					))
					x.assign(x.valV(dst.cell), linear.ConstExpr(0))
				},
				func() { // strictly before the terminator: nonzero
					x.assume(ip.Conj(
						eqConst(nt, 1),
						linear.NewGt(linear.VarExpr(ln).Sub(off)),
					))
					x.havoc(x.valV(dst.cell))
					x.assume(relDNF(cast.Ne, linear.VarExpr(x.valV(dst.cell)), linear.ConstExpr(0)))
				},
				func() { // not null-terminated: unknown
					x.assume(ip.Single(linear.NewEq(linear.VarExpr(nt))))
					x.havoc(x.valV(dst.cell))
				},
			)
		}
	}
	var alts []func()
	for _, r := range regions {
		alts = append(alts, loadFrom(r))
	}
	x.weakly(weak, func() { x.choose(alts...) })

	return nil
}

// emitDerefAsserts emits one Table 3 assert per (pointer, region) pair.
func (x *xform) emitDerefAsserts(p aval, regions []ppt.LocID, elem int64, isRead bool, pos clex.Pos, msg string) {
	if len(regions) == 0 {
		x.emit(&ip.Assert{
			C:            ip.False(),
			Msg:          msg + " (pointer has no known target)",
			Pos:          pos,
			Unverifiable: true,
		})
		return
	}
	for _, r := range regions {
		off, ok := x.offsetExpr(p, r)
		if !ok {
			x.emit(&ip.Assert{
				C:            ip.False(),
				Msg:          msg + " (untracked pointer offset)",
				Pos:          pos,
				Unverifiable: true,
			})
			continue
		}
		x.emit(&ip.Assert{
			C:   x.derefCheck(off, r, elem, isRead),
			Msg: msg,
			Pos: pos,
		})
	}
}

func (x *xform) assignBinary(dst aval, weak bool, b *cast.Binary, a *cast.Assign) error {
	l := x.atom(b.X)
	r := x.atom(b.Y)
	lPtr := l.isPointerish() || l.isRegionValued()
	rPtr := r.isPointerish() || r.isRegionValued()

	switch {
	case b.Op.IsComparison():
		x.weakly(weak, func() { x.compareInto(dst, b.Op, l, r) })
		return nil
	case (b.Op == cast.Add || b.Op == cast.Sub) && lPtr && !rPtr:
		x.weakly(weak, func() { x.pointerArith(dst, b.Op, l, r, a) })
		return nil
	case b.Op == cast.Add && rPtr && !lPtr:
		x.weakly(weak, func() { x.pointerArith(dst, b.Op, r, l, a) })
		return nil
	case b.Op == cast.Sub && lPtr && rPtr:
		x.weakly(weak, func() { x.pointerDiff(dst, l, r) })
		return nil
	default:
		x.weakly(weak, func() { x.intArith(dst, b.Op, l, r) })
		return nil
	}
}

// compareInto sets dst to the 0/1 result of l op r.
func (x *xform) compareInto(dst aval, op cast.BinaryOp, l, r aval) {
	cond := x.atomRel(op, l, r)
	if cond == nil {
		x.havocBool(x.valV(dst.cell))
		return
	}
	neg := cond.Negate()
	x.choose(
		func() {
			x.assume(cond)
			x.assign(x.valV(dst.cell), linear.ConstExpr(1))
		},
		func() {
			x.assume(neg)
			x.assign(x.valV(dst.cell), linear.ConstExpr(0))
		},
	)
}

// atomRel builds the relation DNF between two atoms, using offsets for
// pointer comparisons (Table 4) and values otherwise; nil when untrackable.
func (x *xform) atomRel(op cast.BinaryOp, l, r aval) ip.DNF {
	lPtr := l.isPointerish() || l.isRegionValued()
	rPtr := r.isPointerish() || r.isRegionValued()
	// Pointer vs null literal: the address-value channel.
	if lPtr && r.isLit {
		if ve, ok := x.valExpr(l); ok {
			return relDNF(op, ve, linear.ConstExpr(r.lit))
		}
		return nil
	}
	if rPtr && l.isLit {
		if ve, ok := x.valExpr(r); ok {
			return relDNF(op, linear.ConstExpr(l.lit), ve)
		}
		return nil
	}
	if lPtr && rPtr {
		le, ok1 := x.offsetExpr(l, -1)
		re, ok2 := x.offsetExpr(r, -1)
		if !ok1 || !ok2 {
			return nil
		}
		return relDNF(op, le, re)
	}
	le, ok1 := x.valExpr(l)
	re, ok2 := x.valExpr(r)
	if !ok1 || !ok2 {
		return nil
	}
	return relDNF(op, le, re)
}

// pointerArith implements p = q ± i (Table 4 row 3) with the Table 3
// arithmetic bounds check, scaled by the element size.
func (x *xform) pointerArith(dst aval, op cast.BinaryOp, q, i aval, a *cast.Assign) {
	sz := x.elemSize(a.LHS.Type())
	if ctypes.IsPointer(ctypes.Decay(q.typ)) {
		sz = x.elemSize(q.typ)
	}
	ie, iOK := x.valExpr(i)
	regions := x.regionsOf(q)

	newOff := func(region ppt.LocID) (linear.Expr, bool) {
		qe, ok := x.offsetExpr(q, region)
		if !ok || !iOK {
			return linear.Expr{}, false
		}
		delta := ie.Scale(sz)
		if op == cast.Sub {
			return qe.Sub(delta), true
		}
		return qe.Add(delta), true
	}

	// Bounds assert per region.
	for _, r := range regions {
		off, ok := newOff(r)
		if !ok {
			x.emit(&ip.Assert{
				C:            ip.False(),
				Msg:          fmt.Sprintf("pointer arithmetic on %s (untracked operand)", q.name),
				Pos:          a.Pos(),
				Unverifiable: true,
			})
			continue
		}
		x.emit(&ip.Assert{
			C:   x.arithCheck(off, r),
			Msg: fmt.Sprintf("pointer arithmetic %s %s ...", q.name, op),
			Pos: a.Pos(),
		})
	}
	if len(regions) == 0 {
		x.emit(&ip.Assert{
			C:            ip.False(),
			Msg:          fmt.Sprintf("pointer arithmetic on %s (no known target)", q.name),
			Pos:          a.Pos(),
			Unverifiable: true,
		})
	}

	x.setOffset(dst.cell, newOff)
	x.havoc(x.valV(dst.cell))
	x.assume(ip.Single(geConst(x.valV(dst.cell), 1)))
}

// pointerDiff implements x = p - q: x * elem == off(p) - off(q).
func (x *xform) pointerDiff(dst aval, p, q aval) {
	pe, ok1 := x.offsetExpr(p, -1)
	qe, ok2 := x.offsetExpr(q, -1)
	x.havoc(x.valV(dst.cell))
	if !ok1 || !ok2 {
		return
	}
	sz := x.elemSize(p.typ)
	lhs := linear.VarExpr(x.valV(dst.cell)).Scale(sz)
	x.assume(ip.Single(linear.NewEq(lhs.Sub(pe.Sub(qe)))))
}

// intArith implements integer arithmetic on the value channel.
func (x *xform) intArith(dst aval, op cast.BinaryOp, l, r aval) {
	le, ok1 := x.valExpr(l)
	re, ok2 := x.valExpr(r)
	v := x.valV(dst.cell)
	lin := ok1 && ok2
	switch op {
	case cast.Add:
		if lin {
			x.assign(v, le.Add(re))
			return
		}
	case cast.Sub:
		if lin {
			x.assign(v, le.Sub(re))
			return
		}
	case cast.Mul:
		switch {
		case lin && l.isLit:
			x.assign(v, re.Scale(l.lit))
			return
		case lin && r.isLit:
			x.assign(v, le.Scale(r.lit))
			return
		}
	case cast.Shl:
		if lin && r.isLit && r.lit >= 0 && r.lit < 31 {
			x.assign(v, le.Scale(1<<uint(r.lit)))
			return
		}
	case cast.Rem:
		if r.isLit && r.lit > 0 {
			// -(n-1) <= x % n <= n-1 (C remainder may be negative).
			x.havoc(v)
			x.assume(ip.Conj(geConst(v, -(r.lit-1)), leConst(v, r.lit-1)))
			return
		}
	case cast.Div:
		if lin && r.isLit && r.lit > 0 {
			// x = a / n: n*x <= a <= n*x + (n-1) for a >= 0; keep only the
			// sound two-sided bound |n*x| <= |a| via havoc + nothing.
			x.havoc(v)
			return
		}
	}
	x.havoc(v)
	if dst.isPointerish() {
		x.setOffset(dst.cell, func(ppt.LocID) (linear.Expr, bool) {
			return linear.Expr{}, false
		})
	}
}
