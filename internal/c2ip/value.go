package c2ip

import (
	"fmt"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/ppt"
)

// aval is the abstract value of a CoreC atom: either a literal or the
// contents of a variable's cell.
type aval struct {
	lit     int64
	isLit   bool
	cell    ppt.LocID
	hasCell bool
	name    string
	typ     ctypes.Type
}

// atom classifies a CoreC atom expression.
func (x *xform) atom(e cast.Expr) aval {
	switch e := e.(type) {
	case *cast.IntLit:
		return aval{lit: e.Value, isLit: true, typ: e.Type()}
	case *cast.Ident:
		v := aval{name: e.Name, typ: e.Type()}
		if l, ok := x.lv(e.Name); ok {
			v.cell = l
			v.hasCell = true
		}
		return v
	}
	return aval{typ: e.Type()}
}

// lv returns the cell of a variable the program or a contract names. A
// file-scope variable the PPT projected out must never be named: the
// projection and C2IP's call dispatch have drifted apart, and skipping the
// name would silently drop its reads and writes. lv records the first such
// name as the transformation's error.
func (x *xform) lv(name string) (ppt.LocID, bool) {
	l, ok := x.pt.Lv(name)
	if !ok && x.err == nil && x.pt.Unprojected(name) {
		x.err = fmt.Errorf("c2ip: %s: %s needs global %s, which its PPT does not project",
			x.fd.Body.Stmts[x.curIdx].Pos(), x.fd.Name, name)
	}
	return l, ok
}

// isRegionValued reports whether the atom denotes a region whose address is
// the value (arrays and functions).
func (v aval) isRegionValued() bool {
	return v.typ != nil && (ctypes.IsArray(v.typ) || ctypes.IsFunc(v.typ))
}

// isPointerish reports whether the atom's (decayed) type is a pointer.
func (v aval) isPointerish() bool {
	return v.typ != nil && ctypes.IsPointer(ctypes.Decay(v.typ))
}

// valExpr returns the linear expression for the atom's primitive value, or
// ok=false when it is unknown.
func (x *xform) valExpr(v aval) (linear.Expr, bool) {
	if v.isLit {
		return linear.ConstExpr(v.lit), true
	}
	if v.hasCell && !v.isRegionValued() {
		return linear.VarExpr(x.valV(v.cell)), true
	}
	return linear.Expr{}, false
}

// offsetExpr returns the linear expression for the pointer offset carried
// by the atom (relative to region, for naive mode), or ok=false.
// Array-valued atoms have offset 0.
func (x *xform) offsetExpr(v aval, region ppt.LocID) (linear.Expr, bool) {
	if v.isRegionValued() {
		return linear.ConstExpr(0), true
	}
	if v.hasCell {
		return linear.VarExpr(x.offV(v.cell, region)), true
	}
	if v.isLit {
		// An integer literal used as a pointer (p = 0): no usable offset.
		return linear.Expr{}, false
	}
	return linear.Expr{}, false
}

// regionsOf returns the regions the atom's pointer value may reference:
// the points-to set of its cell, or the region itself for arrays.
func (x *xform) regionsOf(v aval) []ppt.LocID {
	if !v.hasCell {
		return nil
	}
	if v.isRegionValued() {
		return []ppt.LocID{v.cell}
	}
	return x.pt.Pt(v.cell)
}

// elemSize returns the byte size of the pointee of the atom's (decayed)
// pointer type under the run's layout target, defaulting to 1.
func (x *xform) elemSize(t ctypes.Type) int64 {
	e := ctypes.Elem(ctypes.Decay(t))
	if e == nil {
		return 1
	}
	if s := x.engine().SizeOf(e); s > 0 {
		return int64(s)
	}
	return 1
}

// havocCell havocs the stored-value properties (val + offsets) of a cell.
func (x *xform) havocCell(l ppt.LocID) {
	x.havoc(x.valV(l))
	for _, ov := range x.offVars(l) {
		x.havoc(ov)
	}
}

// havocRegionString havocs the string properties of a region.
func (x *xform) havocRegionString(r ppt.LocID) {
	if x.stringRegion(r) {
		x.havocNTLen(r)
	}
	x.havoc(x.valV(r))
}

// setOffset assigns all offset variables of cell l. In naive mode the same
// expression is written to every (cell, region) pair variable; exprFor may
// specialize per region.
func (x *xform) setOffset(l ppt.LocID, exprFor func(region ppt.LocID) (linear.Expr, bool)) {
	if !x.opts.Naive {
		if e, ok := exprFor(-1); ok {
			x.assign(x.offV(l, -1), e)
		} else {
			x.havoc(x.offV(l, -1))
		}
		return
	}
	targets := x.pt.Pt(l)
	if len(targets) == 0 {
		if e, ok := exprFor(-1); ok {
			x.assign(x.offV(l, -1), e)
		} else {
			x.havoc(x.offV(l, -1))
		}
		return
	}
	for _, r := range targets {
		if e, ok := exprFor(r); ok {
			x.assign(x.offV(l, r), e)
		} else {
			x.havoc(x.offV(l, r))
		}
	}
}

// ---------------------------------------------------------------------------
// Relations

// relDNF builds the DNF for "a op b" over linear expressions (integer
// semantics; strict inequalities shift by one).
func relDNF(op cast.BinaryOp, a, b linear.Expr) ip.DNF {
	switch op {
	case cast.Lt:
		return ip.Single(linear.NewGt(b.Sub(a)))
	case cast.Le:
		return ip.Single(linear.NewGe(b.Sub(a)))
	case cast.Gt:
		return ip.Single(linear.NewGt(a.Sub(b)))
	case cast.Ge:
		return ip.Single(linear.NewGe(a.Sub(b)))
	case cast.Eq:
		return ip.Single(linear.NewEq(a.Sub(b)))
	case cast.Ne:
		lt := linear.NewGt(b.Sub(a))
		gt := linear.NewGt(a.Sub(b))
		return ip.Single(lt).Or(ip.Single(gt))
	}
	return ip.True()
}

// derefCheck returns the Table 3 safety condition for dereferencing a
// pointer whose offset (within region r) is off. Character reads get the
// full cleanness check (accesses stay at or before the null terminator when
// one exists):
//
//	0 <= off && ((is_nullt(r) && off <= len(r)) ||
//	             (!is_nullt(r) && off <= aSize(r) - 1))
//
// Writes and word-sized accesses get the pure bounds check
// 0 <= off <= aSize(r) - elem: writing beyond the terminator (appending) is
// legitimate string building, and the terminator bookkeeping does not apply
// to non-character cells. elem is the byte width of the access.
func (x *xform) derefCheck(off linear.Expr, r ppt.LocID, elem int64, isRead bool) ip.DNF {
	nonneg := linear.NewGe(off)
	size := linear.VarExpr(x.sizeV(r))
	inBounds := linear.NewGe(size.Sub(off).Sub(linear.ConstExpr(elem)))
	if !isRead || elem != 1 || !x.stringRegion(r) {
		return ip.Conj(nonneg, inBounds)
	}
	nt := linear.VarExpr(x.ntV(r))
	ntTrue := linear.NewEq(nt.Sub(linear.ConstExpr(1)))
	ntFalse := linear.NewEq(nt)
	beforeNull := linear.NewGe(linear.VarExpr(x.lenV(r)).Sub(off))
	d1 := []linear.Constraint{nonneg, ntTrue, beforeNull}
	d2 := []linear.Constraint{nonneg, ntFalse, inBounds}
	return ip.DNF{d1, d2}
}

// arithCheck returns the Table 3 condition for forming a pointer at offset
// off within region r: 0 <= off <= aSize(r) (one past the end is legal,
// K&R A7.7).
func (x *xform) arithCheck(off linear.Expr, r ppt.LocID) ip.DNF {
	nonneg := linear.NewGe(off)
	size := linear.VarExpr(x.sizeV(r))
	within := linear.NewGe(size.Sub(off))
	return ip.Conj(nonneg, within)
}
