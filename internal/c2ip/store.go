package c2ip

import (
	"fmt"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/ppt"
)

// storeVal is the evaluated right-hand side of a store: value and offset
// channels, each possibly unknown, plus literal-zero classification for the
// Table 4 string rules.
type storeVal struct {
	val     linear.Expr
	valOK   bool
	isLit   bool
	lit     int64
	offFor  func(region ppt.LocID) (linear.Expr, bool)
	pointer bool
}

// evalStoreRHS evaluates the pure simple RHS of a store.
func (x *xform) evalStoreRHS(e cast.Expr) storeVal {
	noOff := func(ppt.LocID) (linear.Expr, bool) { return linear.Expr{}, false }
	switch r := e.(type) {
	case *cast.IntLit:
		return storeVal{val: linear.ConstExpr(r.Value), valOK: true, isLit: true, lit: r.Value, offFor: noOff}
	case *cast.Ident:
		v := x.atom(r)
		sv := storeVal{pointer: v.isPointerish() || v.isRegionValued()}
		if ve, ok := x.valExpr(v); ok {
			sv.val, sv.valOK = ve, true
		}
		sv.offFor = func(region ppt.LocID) (linear.Expr, bool) { return x.offsetExpr(v, region) }
		return sv
	case *cast.Unary:
		v := x.atom(r.X)
		sv := storeVal{offFor: noOff}
		if r.Op == cast.Neg {
			if ve, ok := x.valExpr(v); ok {
				sv.val, sv.valOK = ve.Scale(-1), true
			}
		}
		return sv
	case *cast.Binary:
		l := x.atom(r.X)
		rr := x.atom(r.Y)
		lPtr := l.isPointerish() || l.isRegionValued()
		rPtr := rr.isPointerish() || rr.isRegionValued()
		sv := storeVal{offFor: noOff, pointer: lPtr || rPtr}
		switch {
		case (r.Op == cast.Add || r.Op == cast.Sub) && lPtr && !rPtr:
			sz := x.elemSize(l.typ)
			sv.offFor = func(region ppt.LocID) (linear.Expr, bool) {
				le, ok1 := x.offsetExpr(l, region)
				re, ok2 := x.valExpr(rr)
				if !ok1 || !ok2 {
					return linear.Expr{}, false
				}
				if r.Op == cast.Sub {
					return le.Sub(re.Scale(sz)), true
				}
				return le.Add(re.Scale(sz)), true
			}
		case r.Op == cast.Add && rPtr && !lPtr:
			sz := x.elemSize(rr.typ)
			sv.offFor = func(region ppt.LocID) (linear.Expr, bool) {
				re, ok1 := x.offsetExpr(rr, region)
				le, ok2 := x.valExpr(l)
				if !ok1 || !ok2 {
					return linear.Expr{}, false
				}
				return re.Add(le.Scale(sz)), true
			}
		case r.Op == cast.Add || r.Op == cast.Sub:
			le, ok1 := x.valExpr(l)
			re, ok2 := x.valExpr(rr)
			if ok1 && ok2 {
				if r.Op == cast.Sub {
					sv.val, sv.valOK = le.Sub(re), true
				} else {
					sv.val, sv.valOK = le.Add(re), true
				}
			}
		case r.Op == cast.Mul && l.isLit:
			if re, ok := x.valExpr(rr); ok {
				sv.val, sv.valOK = re.Scale(l.lit), true
			}
		case r.Op == cast.Mul && rr.isLit:
			if le, ok := x.valExpr(l); ok {
				sv.val, sv.valOK = le.Scale(rr.lit), true
			}
		}
		return sv
	case *cast.Cast:
		v := x.atom(r.X)
		sv := storeVal{pointer: ctypes.IsPointer(ctypes.Decay(r.To))}
		if ve, ok := x.valExpr(v); ok && !v.isRegionValued() {
			sv.val, sv.valOK = ve, true
		}
		fromPtr := v.isPointerish() || v.isRegionValued()
		if fromPtr && sv.pointer {
			sv.offFor = func(region ppt.LocID) (linear.Expr, bool) { return x.offsetExpr(v, region) }
		} else {
			sv.offFor = noOff
		}
		return sv
	}
	return storeVal{offFor: noOff}
}

// store implements *p = rhs (Table 4, destructive updates).
func (x *xform) store(lhs *cast.Unary, rhs cast.Expr, a *cast.Assign) error {
	p := x.atom(lhs.X)
	if !p.hasCell {
		return fmt.Errorf("c2ip: store through unknown pointer at %s", a.Pos())
	}
	elem := x.elemSize(p.typ)
	regions := x.regionsOf(p)
	x.emitDerefAsserts(p, regions, elem, false, a.Pos(), "write through *"+p.name)
	sv := x.evalStoreRHS(rhs)
	if x.bitfieldAccess(p.name) {
		// A bitfield store rewrites only some bits of the storage unit: the
		// unit's resulting value is unknown even when the RHS is known.
		sv = storeVal{offFor: func(ppt.LocID) (linear.Expr, bool) { return linear.Expr{}, false }}
	}
	x.countStore(p, regions, elem)

	strong := x.strongFor(regions)
	for _, r := range regions {
		r := r
		weak := !strong || x.pt.Loc(r).Summary
		x.weakly(weak, func() {
			if sv.pointer || x.pt.Loc(r).Scalar {
				x.storeCell(r, sv)
			}
			if elem == 1 && x.stringRegion(r) {
				x.storeChar(r, p, sv)
			} else if elem != 1 && !x.pt.Loc(r).Scalar {
				x.wideStore(r, p)
			}
		})
	}
	return nil
}

// countStore classifies a store site for the precision counters: resolved
// when every possible target region gets precise offset/aSize constraints
// and no terminator state is havocked wholesale.
func (x *xform) countStore(p aval, regions []ppt.LocID, elem int64) {
	resolved := len(regions) > 0
	for _, r := range regions {
		if _, ok := x.offsetExpr(p, r); !ok {
			resolved = false
		} else if elem != 1 && !x.fieldSensitive() && !x.pt.Loc(r).Scalar {
			// Legacy wide store: havocNTLen abandons the terminator channel.
			resolved = false
		}
	}
	if resolved {
		x.memberResolved++
	} else {
		x.memberHavocked++
	}
}

// countLoad classifies a load site: resolved when every possible target
// region is constrained through a tracked offset.
func (x *xform) countLoad(p aval, regions []ppt.LocID) {
	resolved := len(regions) > 0
	for _, r := range regions {
		if _, ok := x.offsetExpr(p, r); !ok {
			resolved = false
		}
	}
	if resolved {
		x.memberResolved++
	} else {
		x.memberHavocked++
	}
}

// wideStore handles a non-character store into a buffer region. Under the
// paper's packed model the terminator bookkeeping is simply no longer
// trustworthy and is havocked. Under a field-sensitive target with a tracked
// store offset, the store clobbers exactly the bytes at or beyond the
// offset, which splits into two sound cases:
//
//	A: is_nullt = 1 and len < off — the first terminator lies strictly
//	   before the stored bytes and survives untouched;
//	B: otherwise (is_nullt = 0 or len >= off) — no terminator existed
//	   before off, so whatever the store wrote, any new first terminator
//	   is at or beyond off.
//
// Union overlap soundness falls out of the same split: a store through a
// sibling union member lands at the overlapped member's offset 0, where
// case A (len < 0) is infeasible and the terminator state is fully
// havocked, exactly as the packed model would.
func (x *xform) wideStore(r ppt.LocID, p aval) {
	if !x.fieldSensitive() {
		x.havocNTLen(r)
		return
	}
	off, ok := x.offsetExpr(p, r)
	if !ok || !x.stringRegion(r) {
		x.havocNTLen(r)
		return
	}
	nt := x.ntV(r)
	ln := x.lenV(r)
	beyond := ip.Conj(eqConst(nt, 0)).
		Or(ip.Conj(eqConst(nt, 1), linear.NewGe(linear.VarExpr(ln).Sub(off))))
	x.choose(
		func() { // A: an earlier terminator survives; nothing changes.
			x.assume(ip.Conj(
				eqConst(nt, 1),
				linear.NewGt(off.Sub(linear.VarExpr(ln))),
			))
		},
		func() { // B: any new first terminator is at or beyond off.
			x.assume(beyond)
			x.havocBool(nt)
			x.havocLen(r)
			x.assume(ip.Conj(eqConst(nt, 0)).
				Or(ip.Conj(eqConst(nt, 1), linear.NewGe(linear.VarExpr(ln).Sub(off)))))
		},
	)
}

// storeCell updates the stored-value channels of the region cell.
func (x *xform) storeCell(r ppt.LocID, sv storeVal) {
	if sv.valOK {
		x.assign(x.valV(r), sv.val)
	} else {
		x.havoc(x.valV(r))
	}
	if sv.pointer {
		if !x.opts.Naive {
			if e, ok := sv.offFor(-1); ok {
				x.assign(x.offV(r, -1), e)
			} else {
				x.havoc(x.offV(r, -1))
			}
		} else {
			for _, tr := range x.pt.Pt(r) {
				if e, ok := sv.offFor(tr); ok {
					x.assign(x.offV(r, tr), e)
				} else {
					x.havoc(x.offV(r, tr))
				}
			}
		}
	}
}

// storeChar applies the Table 4 string rules for a one-byte store at
// offset off(p) in region r.
func (x *xform) storeChar(r ppt.LocID, p aval, sv storeVal) {
	off, okOff := x.offsetExpr(p, r)
	nt := x.ntV(r)
	ln := x.lenV(r)
	if !okOff {
		// Unknown position: everything about the terminator is off.
		x.havocNTLen(r)
		return
	}

	zeroCase := func() {
		if !x.opts.StrictZeroStore {
			// Paper Table 4: writing '\0' at off makes it the first
			// terminator ("we can therefore safely assume that when
			// assigning a null-termination byte it is the first one",
			// §3.4.2.2). See DESIGN.md for the discussion of this
			// assumption's scope.
			x.assign(ln, off)
			x.assign(nt, linear.ConstExpr(1))
			return
		}
		// Strict mode: an earlier null (strictly before off) would stay
		// the first one:
		//   nt = 0                  -> len := off, nt := 1
		//   nt = 1 and len >= off   -> len := off (the first null moves)
		//   nt = 1 and len < off    -> unchanged (an earlier null wins)
		x.choose(
			func() {
				x.assume(ip.Conj(eqConst(nt, 0)).
					Or(ip.Conj(eqConst(nt, 1), linear.NewGe(linear.VarExpr(ln).Sub(off)))))
				x.assign(ln, off)
				x.assign(nt, linear.ConstExpr(1))
			},
			func() {
				x.assume(ip.Conj(
					eqConst(nt, 1),
					linear.NewGt(off.Sub(linear.VarExpr(ln))),
				))
			},
		)
	}
	overwriteCase := func() {
		// Nonzero char exactly at the terminator: the first null, if any
		// remains, now lies strictly beyond off.
		x.assume(ip.Conj(
			eqConst(nt, 1),
			linear.NewEq(linear.VarExpr(ln).Sub(off)),
		))
		x.havocBool(nt)
		x.havoc(ln)
		x.assume(x.lenInvariant(r))
		x.assume(ip.Single(linear.NewGt(linear.VarExpr(ln).Sub(off))).
			Or(ip.Conj(eqConst(nt, 0))))
	}
	benignCase := func() {
		// Nonzero char away from the terminator: properties unchanged.
		notAt := ip.Conj(eqConst(nt, 0)).
			Or(ip.Conj(eqConst(nt, 1), linear.NewGt(linear.VarExpr(ln).Sub(off)))).
			Or(ip.Conj(eqConst(nt, 1), linear.NewGt(off.Sub(linear.VarExpr(ln)))))
		x.assume(notAt)
	}

	switch {
	case sv.isLit && sv.lit == 0:
		zeroCase()
	case sv.isLit:
		x.choose(overwriteCase, benignCase)
	case sv.valOK:
		ve := sv.val
		x.choose(
			func() {
				x.assume(ip.Single(linear.NewEq(ve)))
				zeroCase()
			},
			func() {
				x.assume(relDNF(cast.Ne, ve, linear.ConstExpr(0)))
				overwriteCase()
			},
			func() {
				x.assume(relDNF(cast.Ne, ve, linear.ConstExpr(0)))
				benignCase()
			},
		)
	default:
		x.choose(zeroCase, overwriteCase, benignCase)
	}
}

// ---------------------------------------------------------------------------
// Conditions

// cond translates "if (c) goto L" (CoreC conditions are atoms or
// atom-relop-atom).
func (x *xform) cond(c cast.Expr, target string) error {
	var trueD, falseD ip.DNF
	switch e := c.(type) {
	case *cast.Binary:
		l := x.atom(e.X)
		r := x.atom(e.Y)
		trueD = x.atomRel(e.Op, l, r)
		if trueD != nil {
			falseD = trueD.Negate()
		}
		// Condition interpretation (§3.4.2.2): "t = *p; if (t == 0)" is
		// understood against p's terminator.
		x.enrichLoadCond(e, l, r, &trueD, &falseD)
	case *cast.Ident:
		v := x.atom(e)
		if ve, ok := x.valExpr(v); ok {
			trueD = relDNF(cast.Ne, ve, linear.ConstExpr(0))
			falseD = trueD.Negate()
		}
	case *cast.IntLit:
		if e.Value != 0 {
			x.emit(&ip.Goto{Target: target})
			return nil
		}
		return nil
	}
	x.emit(&ip.IfGoto{C: trueD, FalseC: falseD, Target: target})
	return nil
}

// enrichLoadCond strengthens both branch conditions of a comparison
// involving the result of a character load feeding the conditional on
// every incoming path (see computeLoadBindings).
func (x *xform) enrichLoadCond(e *cast.Binary, l, r aval, trueD, falseD *ip.DNF) {
	bind, ok := x.loadBind[x.curIdx]
	if !ok {
		return
	}
	var lit aval
	var loaded aval
	switch {
	case l.name == bind.temp && r.isLit:
		loaded, lit = l, r
	case r.name == bind.temp && l.isLit:
		loaded, lit = r, l
	default:
		return
	}
	_ = loaded
	pcell, ok := x.pt.Lv(bind.ptr)
	if !ok {
		return
	}
	pv := aval{name: bind.ptr, cell: pcell, hasCell: true,
		typ: ctypes.PointerTo(ctypes.Char)}
	regions := x.pt.Pt(pcell)
	if len(regions) == 0 {
		return
	}

	// atTerm: the loaded char is the terminator of some target region.
	var atTerm, offTerm ip.DNF = ip.False(), ip.False()
	for _, reg := range regions {
		if !x.stringRegion(reg) {
			return
		}
		off, ok := x.offsetExpr(pv, reg)
		if !ok {
			return
		}
		nt := x.ntV(reg)
		ln := x.lenV(reg)
		atTerm = atTerm.Or(ip.Conj(
			eqConst(nt, 1),
			linear.NewEq(linear.VarExpr(ln).Sub(off)),
		))
		offTerm = offTerm.Or(ip.Conj(eqConst(nt, 0))).
			Or(ip.Conj(eqConst(nt, 1), linear.NewGt(linear.VarExpr(ln).Sub(off)))).
			Or(ip.Conj(eqConst(nt, 1), linear.NewGt(off.Sub(linear.VarExpr(ln)))))
	}

	isEqZero := e.Op == cast.Eq && lit.lit == 0
	isNeZero := e.Op == cast.Ne && lit.lit == 0
	eqNonzero := e.Op == cast.Eq && lit.lit != 0
	neNonzero := e.Op == cast.Ne && lit.lit != 0

	switch {
	case isEqZero:
		*trueD = (*trueD).And(atTerm)
		*falseD = (*falseD).And(offTerm)
	case isNeZero:
		*trueD = (*trueD).And(offTerm)
		*falseD = (*falseD).And(atTerm)
	case eqNonzero:
		// Matching a specific nonzero char: true branch is off-terminator.
		*trueD = (*trueD).And(offTerm)
	case neNonzero:
		// Failing to match a specific nonzero char: the false branch (the
		// char equals it) is off-terminator.
		*falseD = (*falseD).And(offTerm)
	}
}
