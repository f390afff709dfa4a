package c2ip

import (
	"fmt"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/ppt"
)

// verify translates an __assert / __assume statement whose condition is a
// contract expression (Table 4, bottom: attribute-to-constraint-variable
// mapping). Pointer expressions may resolve to several (cell, region)
// candidates; asserts are emitted once per combination (must hold for all
// possible pointer values, §3.4.2.3) while assumes take the disjunction.
func (x *xform) verify(v *cast.Verify) error {
	isAssert := v.Kind == cast.Assert
	envs := x.enumerateEnvs(v.Cond)
	if envs == nil {
		// Too many candidate combinations: conservative fallback.
		if isAssert {
			x.emit(&ip.Assert{C: ip.False(), Msg: v.Reason + " (too many pointer candidates)",
				Pos: v.Where(), Unverifiable: true})
		}
		return nil
	}

	var perEnv []ip.DNF
	exactAll := true
	for _, env := range envs {
		d, exact := x.contractDNF(v.Cond, env, !isAssert)
		if !exact {
			exactAll = false
		}
		perEnv = append(perEnv, d)
	}

	if isAssert {
		if !exactAll {
			x.emit(&ip.Assert{C: ip.False(),
				Msg: v.Reason + " (condition not expressible in linear arithmetic)",
				Pos: v.Where(), Unverifiable: true})
			return nil
		}
		for _, d := range perEnv {
			x.emit(&ip.Assert{C: d, Msg: v.Reason, Pos: v.Where()})
		}
		return nil
	}
	// Assume: the actual pointer targets are one of the candidates.
	all := ip.False()
	for _, d := range perEnv {
		all = all.Or(d)
	}
	x.assume(all)
	return nil
}

// env maps pointer-path keys to a chosen (cell, region) candidate.
type env map[string]cellRegion

type cellRegion struct {
	cell   ppt.LocID
	region ppt.LocID // -1 when the cell has no known target
	ok     bool
	// arrayBase marks a path that IS a region (an array identifier): the
	// pointer value is the region base, offset identically zero.
	arrayBase bool
}

// maxEnvs caps candidate-combination blowup.
const maxEnvs = 32

// enumerateEnvs returns all candidate environments for the pointer paths in
// e, or nil when there are too many.
func (x *xform) enumerateEnvs(e cast.Expr) []env {
	paths := map[string][]cellRegion{}
	x.collectPaths(e, paths)
	envs := []env{{}}
	for key, cands := range paths {
		if len(cands) == 0 {
			cands = []cellRegion{{ok: false}}
		}
		var next []env
		for _, base := range envs {
			for _, c := range cands {
				ne := env{}
				for k, v := range base {
					ne[k] = v
				}
				ne[key] = c
				next = append(next, ne)
			}
		}
		envs = next
		if len(envs) > maxEnvs {
			return nil
		}
	}
	return envs
}

// pathKey canonically names a pointer-valued contract expression.
func pathKey(e cast.Expr) string { return cast.ExprString(e) }

// collectPaths finds every pointer-valued subexpression that needs a
// (cell, region) resolution and records its candidates.
func (x *xform) collectPaths(e cast.Expr, out map[string][]cellRegion) {
	switch e := e.(type) {
	case *cast.Ident:
		if e.Type() != nil && ctypes.IsPointer(ctypes.Decay(e.Type())) {
			x.addPath(e, out)
		}
		if e.Type() != nil && ctypes.IsArray(e.Type()) {
			x.addPath(e, out)
		}
	case *cast.Unary:
		if e.Op == cast.Deref {
			x.addPath(e, out)
		}
		x.collectPaths(e.X, out)
	case *cast.Binary:
		x.collectPaths(e.X, out)
		x.collectPaths(e.Y, out)
	case *cast.Call:
		for _, a := range e.Args {
			x.collectPaths(a, out)
		}
	case *cast.Cast:
		x.collectPaths(e.X, out)
	}
}

func (x *xform) addPath(e cast.Expr, out map[string][]cellRegion) {
	key := pathKey(e)
	if _, done := out[key]; done {
		return
	}
	// Array identifiers decay to their base address: the region is the
	// array itself and the offset is zero.
	if id, ok := e.(*cast.Ident); ok && id.Type() != nil && ctypes.IsArray(id.Type()) {
		if l, ok := x.lv(id.Name); ok {
			out[key] = []cellRegion{{region: l, ok: true, arrayBase: true}}
			return
		}
	}
	var cands []cellRegion
	for _, c := range x.cellsOfPath(e) {
		targets := x.pt.Pt(c)
		if len(targets) == 0 {
			cands = append(cands, cellRegion{cell: c, region: -1, ok: true})
			continue
		}
		for _, r := range targets {
			cands = append(cands, cellRegion{cell: c, region: r, ok: true})
		}
	}
	out[key] = cands
}

// cellsOfPath returns the cells whose contents a pointer path denotes.
func (x *xform) cellsOfPath(e cast.Expr) []ppt.LocID {
	switch e := e.(type) {
	case *cast.Ident:
		if l, ok := x.lv(e.Name); ok {
			return []ppt.LocID{l}
		}
	case *cast.Unary:
		if e.Op == cast.Deref {
			var out []ppt.LocID
			for _, c := range x.cellsOfPath(e.X) {
				out = append(out, x.pt.Pt(c)...)
			}
			return out
		}
	case *cast.Cast:
		return x.cellsOfPath(e.X)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Boolean structure

// contractDNF translates a contract expression to DNF under env. exact
// reports whether the translation is complete; when false in assume mode
// the returned DNF is a sound weakening (true at the failed node).
func (x *xform) contractDNF(e cast.Expr, ev env, weakenOK bool) (ip.DNF, bool) {
	switch b := e.(type) {
	case *cast.Binary:
		switch {
		case b.Op == cast.LogAnd:
			l, e1 := x.contractDNF(b.X, ev, weakenOK)
			r, e2 := x.contractDNF(b.Y, ev, weakenOK)
			if e1 && e2 {
				return l.And(r), true
			}
			if weakenOK {
				return l.And(r), false // failed side already weakened to true
			}
			return ip.True(), false
		case b.Op == cast.LogOr:
			l, e1 := x.contractDNF(b.X, ev, false)
			r, e2 := x.contractDNF(b.Y, ev, false)
			if e1 && e2 {
				return l.Or(r), true
			}
			if weakenOK {
				return ip.True(), false
			}
			return ip.True(), false
		case b.Op.IsComparison():
			d, ok := x.compareDNF(b.Op, b.X, b.Y, ev)
			if ok {
				return d, true
			}
			if weakenOK {
				return ip.True(), false
			}
			return ip.True(), false
		}
	case *cast.Unary:
		if b.Op == cast.LogNot {
			inner, exact := x.contractDNF(b.X, ev, false)
			if exact {
				return inner.Negate(), true
			}
			return ip.True(), false
		}
	case *cast.Call:
		switch b.FuncName() {
		case "is_nullt":
			// Table 1: "is exp pointing to a null-terminated string?" — a
			// property of the pointer: the region has a terminator and it
			// lies at or after exp's position.
			if cr, ok := x.resolvePath(b.Args[0], ev); ok && cr.region >= 0 {
				off := linear.ConstExpr(0)
				if !cr.arrayBase {
					off = linear.VarExpr(x.offV(cr.cell, cr.region))
				}
				ln := linear.VarExpr(x.lenV(cr.region))
				return ip.Conj(
					eqConst(x.ntV(cr.region), 1),
					linear.NewGe(ln.Sub(off)),
				), true
			}
			return ip.True(), false
		case "is_within_bounds":
			if cr, ok := x.resolvePath(b.Args[0], ev); ok && cr.region >= 0 {
				if cr.arrayBase {
					return ip.True(), true
				}
				off := linear.VarExpr(x.offV(cr.cell, cr.region))
				size := linear.VarExpr(x.sizeV(cr.region))
				return ip.Conj(
					linear.NewGe(off),
					linear.NewGe(size.Sub(off)),
				), true
			}
			return ip.True(), false
		}
	case *cast.IntLit:
		if b.Value != 0 {
			return ip.True(), true
		}
		return ip.False(), true
	}
	// Fallback: a bare term compared against zero.
	if t, ok := x.termExpr(e, ev); ok {
		return relDNF(cast.Ne, t, linear.ConstExpr(0)), true
	}
	return ip.True(), false
}

// resolvePath finds the env candidate for a pointer path.
func (x *xform) resolvePath(e cast.Expr, ev env) (cellRegion, bool) {
	cr, ok := ev[pathKey(e)]
	if !ok || !cr.ok {
		return cellRegion{}, false
	}
	return cr, true
}

// compareDNF handles comparisons, dispatching between pointer comparisons
// (offset channel / address channel) and integer terms.
func (x *xform) compareDNF(op cast.BinaryOp, a, b cast.Expr, ev env) (ip.DNF, bool) {
	aPtr := isPointerExpr(a)
	bPtr := isPointerExpr(b)
	switch {
	case aPtr && bPtr:
		ae, ok1 := x.pointerOffsetTerm(a, ev)
		be, ok2 := x.pointerOffsetTerm(b, ev)
		if !ok1 || !ok2 {
			return nil, false
		}
		return relDNF(op, ae, be), true
	case aPtr && isZeroLit(b):
		if cr, ok := x.resolvePath(a, ev); ok {
			return relDNF(op, linear.VarExpr(x.valV(cr.cell)), linear.ConstExpr(0)), true
		}
		return nil, false
	case bPtr && isZeroLit(a):
		if cr, ok := x.resolvePath(b, ev); ok {
			return relDNF(op, linear.ConstExpr(0), linear.VarExpr(x.valV(cr.cell))), true
		}
		return nil, false
	default:
		ae, ok1 := x.termExpr(a, ev)
		be, ok2 := x.termExpr(b, ev)
		if !ok1 || !ok2 {
			return nil, false
		}
		return relDNF(op, ae, be), true
	}
}

func isPointerExpr(e cast.Expr) bool {
	t := e.Type()
	if t == nil {
		// Untyped contract subtree (e.g. pre() call): inspect shape.
		if c, ok := e.(*cast.Call); ok && c.FuncName() == "pre" {
			return isPointerExpr(c.Args[0])
		}
		return false
	}
	dt := ctypes.Decay(t)
	return ctypes.IsPointer(dt)
}

func isZeroLit(e cast.Expr) bool {
	l, ok := e.(*cast.IntLit)
	return ok && l.Value == 0
}

// pointerOffsetTerm returns the offset-channel linear term of a
// pointer-valued contract expression: the offset variable of its resolved
// cell, or for p + i the offset plus the scaled integer term.
func (x *xform) pointerOffsetTerm(e cast.Expr, ev env) (linear.Expr, bool) {
	switch b := e.(type) {
	case *cast.Call:
		// base(e) denotes the base address of e's buffer: offset zero.
		if b.FuncName() == "base" && len(b.Args) == 1 {
			return linear.ConstExpr(0), true
		}
	case *cast.Binary:
		if b.Op == cast.Add || b.Op == cast.Sub {
			pe, ok1 := x.pointerOffsetTerm(b.X, ev)
			ie, ok2 := x.termExpr(b.Y, ev)
			if !ok1 || !ok2 {
				return linear.Expr{}, false
			}
			sz := x.elemSize(b.X.Type())
			if b.Op == cast.Sub {
				return pe.Sub(ie.Scale(sz)), true
			}
			return pe.Add(ie.Scale(sz)), true
		}
	}
	if cr, ok := x.resolvePath(e, ev); ok {
		if cr.arrayBase {
			return linear.ConstExpr(0), true
		}
		return linear.VarExpr(x.offV(cr.cell, cr.region)), true
	}
	return linear.Expr{}, false
}

// termExpr translates an integer-valued contract term to a linear
// expression under env.
func (x *xform) termExpr(e cast.Expr, ev env) (linear.Expr, bool) {
	switch t := e.(type) {
	case *cast.IntLit:
		return linear.ConstExpr(t.Value), true
	case *cast.SizeofType:
		return linear.ConstExpr(int64(x.engine().SizeOf(t.Of))), true
	case *cast.Ident:
		if l, ok := x.lv(t.Name); ok {
			return linear.VarExpr(x.valV(l)), true
		}
		return linear.Expr{}, false
	case *cast.Unary:
		switch t.Op {
		case cast.Neg:
			inner, ok := x.termExpr(t.X, ev)
			if !ok {
				return linear.Expr{}, false
			}
			return inner.Scale(-1), true
		case cast.Deref:
			// *p as an integer term: the value channel of the region.
			if cr, ok := x.resolvePath(t, ev); ok {
				return linear.VarExpr(x.valV(cr.cell)), true
			}
			return linear.Expr{}, false
		}
	case *cast.Binary:
		switch t.Op {
		case cast.Add, cast.Sub:
			a, ok1 := x.termExpr(t.X, ev)
			b, ok2 := x.termExpr(t.Y, ev)
			if !ok1 || !ok2 {
				return linear.Expr{}, false
			}
			if t.Op == cast.Sub {
				return a.Sub(b), true
			}
			return a.Add(b), true
		case cast.Mul:
			if lit, ok := t.X.(*cast.IntLit); ok {
				b, ok2 := x.termExpr(t.Y, ev)
				if !ok2 {
					return linear.Expr{}, false
				}
				return b.Scale(lit.Value), true
			}
			if lit, ok := t.Y.(*cast.IntLit); ok {
				a, ok2 := x.termExpr(t.X, ev)
				if !ok2 {
					return linear.Expr{}, false
				}
				return a.Scale(lit.Value), true
			}
		}
	case *cast.Call:
		switch t.FuncName() {
		case "strlen":
			if cr, ok := x.resolvePath(t.Args[0], ev); ok && cr.region >= 0 {
				ln := linear.VarExpr(x.lenV(cr.region))
				if cr.arrayBase {
					return ln, true
				}
				off := linear.VarExpr(x.offV(cr.cell, cr.region))
				return ln.Sub(off), true
			}
		case "alloc":
			if cr, ok := x.resolvePath(t.Args[0], ev); ok && cr.region >= 0 {
				size := linear.VarExpr(x.sizeV(cr.region))
				if cr.arrayBase {
					return size, true
				}
				off := linear.VarExpr(x.offV(cr.cell, cr.region))
				return size.Sub(off), true
			}
		case "offset":
			if cr, ok := x.resolvePath(t.Args[0], ev); ok {
				if cr.arrayBase {
					return linear.ConstExpr(0), true
				}
				return linear.VarExpr(x.offV(cr.cell, cr.region)), true
			}
		case "is_nullt":
			if cr, ok := x.resolvePath(t.Args[0], ev); ok && cr.region >= 0 {
				return linear.VarExpr(x.ntV(cr.region)), true
			}
		}
	case *cast.Cast:
		return x.termExpr(t.X, ev)
	}
	return linear.Expr{}, false
}

var _ = fmt.Sprintf
