package c2ip

import (
	"fmt"
	"strings"

	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/ctypes"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/pointer"
	"repro/internal/ppt"
)

// callStmt translates a procedure call (Table 4: g(a1..am) becomes
// mod[g](a1..am); the inliner already bracketed the call with the
// contract's assert/assume).
func (x *xform) callStmt(dst string, c *cast.Call, pos clex.Pos) error {
	name := c.FuncName()

	if pointer.AllocFuncs[name] {
		return x.allocCall(dst, c)
	}
	if pointer.FormatFuncs[name] {
		return x.formatCall(dst, c, pos)
	}

	callee := x.file.Lookup(name)
	switch {
	case callee != nil && callee.Contract != nil:
		sub := map[string]cast.Expr{}
		for i, p := range callee.Params {
			if i < len(c.Args) {
				sub[p.Name] = c.Args[i]
			}
		}
		for _, m := range callee.Contract.Modifies {
			x.modifiesEntry(cast.SubstituteIdents(m, sub))
		}
	case callee == nil && x.isFuncPointerVar(name):
		// A call through a function pointer (§3.4.2.3): the pointer
		// analysis determined the candidate callees; select one
		// nondeterministically and apply its contract.
		return x.funcPointerCallImpl(dst, name, c, pos)
	case name != "":
		// Unknown effects: conservatively havoc everything reachable from
		// the pointer arguments and from the globals.
		x.warnf(pos, "call to %s without contract: assuming worst-case side effects", name)
		x.havocWorstCase(c)
	}

	if dst != "" {
		if l, ok := x.pt.Lv(dst); ok {
			x.havocCell(l)
		}
	}
	return nil
}

// isFuncPointerVar reports whether name is a visible variable that may hold
// function values.
func (x *xform) isFuncPointerVar(name string) bool {
	l, ok := x.pt.Lv(name)
	if !ok {
		return false
	}
	for _, t := range x.pt.Pt(l) {
		if x.file.Lookup(x.pt.Loc(t).Name) != nil {
			return true
		}
	}
	return false
}

// funcPointerCallImpl expands a call through a function pointer into a
// nondeterministic choice over the candidate callees, applying each one's
// contract (assert the precondition, havoc the side effects, assume the
// postcondition) exactly as the inliner does for direct calls. pre()
// conjuncts in the callee postconditions are dropped (no snapshots exist
// for an indirect callee).
func (x *xform) funcPointerCallImpl(dst, name string, c *cast.Call, pos clex.Pos) error {
	l, _ := x.pt.Lv(name)
	var callees []*cast.FuncDecl
	for _, t := range x.pt.Pt(l) {
		if fd := x.file.Lookup(x.pt.Loc(t).Name); fd != nil {
			callees = append(callees, fd)
		}
	}
	if len(callees) == 0 {
		x.warnf(pos, "call through %s resolves to no function; assuming worst case", name)
		x.havocWorstCase(c)
		return nil
	}
	var alts []func()
	for _, fd := range callees {
		fd := fd
		alts = append(alts, func() {
			sub := map[string]cast.Expr{}
			for i, p := range fd.Params {
				if i < len(c.Args) {
					sub[p.Name] = c.Args[i]
				}
			}
			if fd.Contract == nil {
				x.havocWorstCase(c)
				if dst != "" {
					if dl, ok := x.pt.Lv(dst); ok {
						x.havocCell(dl)
					}
				}
			} else {
				if fd.Contract.Requires != nil {
					v := &cast.Verify{
						Kind:   cast.Assert,
						Cond:   cast.SubstituteIdents(fd.Contract.Requires, sub),
						Reason: fmt.Sprintf("precondition of %s (via function pointer %s)", fd.Name, name),
						Site:   pos,
					}
					v.P = pos
					_ = x.verify(v)
				}
				for _, m := range fd.Contract.Modifies {
					x.modifiesEntry(cast.SubstituteIdents(m, sub))
				}
				// The result cell is overwritten before the postcondition
				// (which may constrain it) is assumed.
				if dst != "" {
					if dl, ok := x.pt.Lv(dst); ok {
						x.havocCell(dl)
					}
				}
				if fd.Contract.Ensures != nil {
					post := cast.SubstituteIdents(fd.Contract.Ensures, sub)
					if dst != "" {
						id := &cast.Ident{Name: dst}
						id.SetType(c.Type())
						post = cast.SubstituteIdents(post, map[string]cast.Expr{cast.ReturnValueName: id})
					}
					post = dropPreConjuncts(post)
					if post != nil {
						v := &cast.Verify{
							Kind:   cast.Assume,
							Cond:   post,
							Reason: fmt.Sprintf("postcondition of %s (via %s)", fd.Name, name),
							Site:   pos,
						}
						v.P = pos
						_ = x.verify(v)
					}
				}
			}
		})
	}
	x.choose(alts...)
	return nil
}

// dropPreConjuncts removes top-level conjuncts containing pre() calls.
func dropPreConjuncts(e cast.Expr) cast.Expr {
	if b, ok := e.(*cast.Binary); ok && b.Op == cast.LogAnd {
		l := dropPreConjuncts(b.X)
		r := dropPreConjuncts(b.Y)
		switch {
		case l == nil:
			return r
		case r == nil:
			return l
		default:
			b.X, b.Y = l, r
			return b
		}
	}
	hasPre := false
	cast.WalkExpr(e, func(x cast.Expr) bool {
		if cc, ok := x.(*cast.Call); ok && cc.FuncName() == "pre" {
			hasPre = true
			return false
		}
		return true
	})
	if hasPre {
		return nil
	}
	return e
}

// allocCall implements p = Alloc(i) (Table 4 row 2): offset zero, region
// size from the argument, no null terminator.
func (x *xform) allocCall(dst string, c *cast.Call) error {
	if dst == "" {
		return nil
	}
	l, ok := x.pt.Lv(dst)
	if !ok {
		return nil
	}
	x.setOffset(l, func(ppt.LocID) (linear.Expr, bool) {
		return linear.ConstExpr(0), true
	})
	x.havoc(x.valV(l))
	x.assume(ip.Single(geConst(x.valV(l), 1)))

	var size linear.Expr
	sizeOK := false
	if len(c.Args) > 0 {
		av := x.atom(c.Args[0])
		size, sizeOK = x.valExpr(av)
	}
	regions := x.pt.Pt(l)
	strong := x.strongFor(regions)
	for _, r := range regions {
		r := r
		weak := !strong || x.pt.Loc(r).Summary
		x.weakly(weak, func() {
			if sizeOK {
				x.assign(x.sizeV(r), size)
			} else {
				x.havoc(x.sizeV(r))
				x.assume(ip.Single(geConst(x.sizeV(r), 0)))
			}
			if x.stringRegion(r) {
				x.assign(x.ntV(r), linear.ConstExpr(0))
				x.havocLen(r)
			}
		})
	}
	return nil
}

// modifiesEntry havocs the state named by one modifies-clause entry
// (actuals already substituted). Conventions:
//
//	modifies (p)          p of type char*: the buffer p points into
//	                      (contents, terminator, length)
//	modifies (x)          x integer: the variable's value
//	modifies (*p)         the cell(s) *p (stored value and pointer offset)
//	modifies (strlen(e))  the length/terminator of e's target region
//	modifies (is_nullt(e)) likewise
//	modifies (alloc(e))   the allocation size of e's target region
func (x *xform) modifiesEntry(e cast.Expr) {
	switch m := e.(type) {
	case *cast.Call:
		switch m.FuncName() {
		case "strlen":
			for _, r := range x.regionsOfPath(m.Args[0]) {
				if x.stringRegion(r) {
					x.weakly(true, func() { x.havocLen(r) })
				}
			}
			return
		case "is_nullt":
			for _, r := range x.regionsOfPath(m.Args[0]) {
				if x.stringRegion(r) {
					x.weakly(true, func() { x.havocNTLen(r) })
				}
			}
			return
		case "alloc":
			for _, r := range x.regionsOfPath(m.Args[0]) {
				x.weakly(true, func() { x.havoc(x.sizeV(r)) })
			}
			return
		}
	case *cast.Ident:
		t := ctypes.Decay(typeOrInt(m))
		if ctypes.IsPointer(t) {
			// Buffer contents rule (array arguments decay: the array is
			// the region).
			regions := x.regionsOfPath(m)
			strong := x.strongFor(regions)
			for _, r := range regions {
				r := r
				x.weakly(!strong || x.pt.Loc(r).Summary, func() {
					x.havocRegionString(r)
				})
			}
			return
		}
		if l, ok := x.lv(m.Name); ok {
			x.weakly(x.pt.Loc(l).Summary, func() { x.havoc(x.valV(l)) })
		}
		return
	case *cast.Unary:
		if m.Op == cast.Deref {
			cells := x.cellsOfPath(m)
			strong := x.strongFor(cells)
			for _, cell := range cells {
				cell := cell
				x.weakly(!strong || x.pt.Loc(cell).Summary, func() {
					x.havocCell(cell)
				})
			}
			return
		}
	}
	// Unrecognized entry: havoc reachable state conservatively.
	for _, cell := range x.cellsOfPath(e) {
		x.havocReachable(cell)
	}
}

// regionsOfPath resolves a contract pointer path to target regions. An
// array identifier IS its region (decay).
func (x *xform) regionsOfPath(e cast.Expr) []ppt.LocID {
	if id, ok := e.(*cast.Ident); ok && id.Type() != nil && ctypes.IsArray(id.Type()) {
		if l, ok := x.lv(id.Name); ok {
			return []ppt.LocID{l}
		}
		return nil
	}
	var out []ppt.LocID
	seen := map[ppt.LocID]bool{}
	for _, c := range x.cellsOfPath(e) {
		for _, r := range x.pt.Pt(c) {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// havocReachable havocs every property of every location reachable from l.
func (x *xform) havocReachable(l ppt.LocID) {
	seen := map[ppt.LocID]bool{}
	var walk func(ppt.LocID)
	walk = func(n ppt.LocID) {
		if seen[n] {
			return
		}
		seen[n] = true
		x.weakly(true, func() {
			x.havocCell(n)
			x.havocRegionString(n)
		})
		for _, t := range x.pt.Pt(n) {
			walk(t)
		}
	}
	walk(l)
}

// havocWorstCase models a call with no contract: everything reachable from
// pointer arguments and globals may change. The PPT roots every global of a
// procedure that makes such a call; one it lacks is a projection error.
func (x *xform) havocWorstCase(c *cast.Call) {
	for _, a := range c.Args {
		av := x.atom(a)
		if !av.hasCell {
			continue
		}
		if av.isPointerish() || av.isRegionValued() {
			for _, r := range x.regionsOf(av) {
				x.havocReachable(r)
			}
		}
	}
	for _, d := range x.file.Decls {
		if vd, ok := d.(*cast.VarDecl); ok {
			if l, ok := x.lv(vd.Name); ok {
				x.havocReachable(l)
			}
		}
	}
}

func typeOrInt(e cast.Expr) ctypes.Type {
	if t := e.Type(); t != nil {
		return t
	}
	return ctypes.Int
}

// ---------------------------------------------------------------------------
// Format functions (paper §3.4.2.3)

// formatCall derives a contract from the format string at the call site.
func (x *xform) formatCall(dst string, c *cast.Call, pos clex.Pos) error {
	name := c.FuncName()
	fmtIdx := 0
	var bufArg cast.Expr
	switch name {
	case "sprintf":
		if len(c.Args) < 2 {
			return nil
		}
		bufArg = c.Args[0]
		fmtIdx = 1
	case "snprintf":
		if len(c.Args) < 3 {
			return nil
		}
		bufArg = c.Args[0]
		fmtIdx = 2
	case "fprintf":
		fmtIdx = 1
	case "printf":
		fmtIdx = 0
	}
	if fmtIdx >= len(c.Args) {
		return nil
	}

	format, ok := x.constantFormat(c.Args[fmtIdx])
	if !ok {
		x.warnf(pos, "%s: format parameter is not a constant", name)
		if bufArg != nil {
			bv := x.atom(bufArg)
			for _, r := range x.regionsOf(bv) {
				x.weakly(true, func() { x.havocRegionString(r) })
			}
			x.emit(&ip.Assert{C: ip.False(),
				Msg:          fmt.Sprintf("%s with non-constant format", name),
				Pos:          pos,
				Unverifiable: true})
		}
		return nil
	}

	minLen, maxLen, exact, extra, perr := x.formatLength(format, c.Args[fmtIdx+1:], pos, name)
	if perr != nil {
		return perr
	}

	// %s arguments must be null-terminated.
	for _, sArg := range extra {
		av := x.atom(sArg)
		for _, r := range x.regionsOf(av) {
			x.emit(&ip.Assert{
				C:   ip.Conj(eqConst(x.ntV(r), 1)),
				Msg: fmt.Sprintf("%%s argument of %s must be null-terminated", name),
				Pos: pos,
			})
		}
	}

	if bufArg == nil {
		return nil
	}
	// sprintf: derived precondition alloc(dst) >= maxLen + 1, derived
	// postcondition on the terminator.
	bv := x.atom(bufArg)
	regions := x.regionsOf(bv)
	strong := x.strongFor(regions)
	for _, r := range regions {
		r := r
		off, okOff := x.offsetExpr(bv, r)
		if !okOff {
			x.emit(&ip.Assert{C: ip.False(),
				Msg: fmt.Sprintf("%s destination has untracked offset", name), Pos: pos,
				Unverifiable: true})
			continue
		}
		size := linear.VarExpr(x.sizeV(r))
		need := maxLen.Add(linear.ConstExpr(1)).Add(off)
		x.emit(&ip.Assert{
			C:   ip.Conj(linear.NewGe(size.Sub(need)), linear.NewGe(off)),
			Msg: fmt.Sprintf("%s output fits the destination buffer", name),
			Pos: pos,
		})
		x.weakly(!strong || x.pt.Loc(r).Summary, func() {
			x.assign(x.ntV(r), linear.ConstExpr(1))
			if exact {
				x.assign(x.lenV(r), off.Add(minLen))
			} else {
				x.havoc(x.lenV(r))
				lo := off.Add(minLen)
				hi := off.Add(maxLen)
				lv := linear.VarExpr(x.lenV(r))
				x.assume(ip.Conj(
					linear.NewGe(lv.Sub(lo)),
					linear.NewGe(hi.Sub(lv)),
				))
			}
			x.havoc(x.valV(r))
		})
	}
	return nil
}

// constantFormat resolves a format atom to its literal string when the
// pointer can only reference one string-literal buffer at offset 0.
func (x *xform) constantFormat(e cast.Expr) (string, bool) {
	av := x.atom(e)
	if av.isRegionValued() && av.hasCell {
		l := x.pt.Loc(av.cell)
		if l.IsString {
			return l.StringVal, true
		}
	}
	if !av.hasCell {
		return "", false
	}
	regions := x.pt.Pt(av.cell)
	if len(regions) != 1 || !x.pt.Loc(regions[0]).IsString {
		return "", false
	}
	return x.pt.Loc(regions[0]).StringVal, true
}

// formatLength computes [min, max] bounds of the formatted output as linear
// expressions; exact reports min == max. It returns the %s arguments for
// null-termination checks.
func (x *xform) formatLength(format string, args []cast.Expr, pos clex.Pos, name string) (minLen, maxLen linear.Expr, exact bool, sArgs []cast.Expr, err error) {
	var minK, maxK int64 // the constant parts, added last
	exact = true
	argi := 0
	i := 0
	for i < len(format) {
		ch := format[i]
		if ch != '%' {
			minK++
			maxK++
			i++
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		// Skip width/precision flags conservatively.
		for i < len(format) && strings.ContainsRune("-+ #0123456789.", rune(format[i])) {
			exact = false
			i++
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case '%':
			minK++
			maxK++
		case 'c':
			minK++
			maxK++
			argi++
		case 'd', 'i', 'u', 'x', 'X', 'o':
			minK++
			maxK += 11
			exact = false
			argi++
		case 's':
			if argi < len(args) {
				sArgs = append(sArgs, args[argi])
				av := x.atom(args[argi])
				added := false
				if regions := x.regionsOf(av); len(regions) == 1 {
					if off, ok := x.offsetExpr(av, regions[0]); ok {
						ln := linear.VarExpr(x.lenV(regions[0]))
						term := ln.Sub(off)
						minLen = minLen.Add(term)
						maxLen = maxLen.Add(term)
						added = true
					}
				}
				if !added {
					x.warnf(pos, "%s: %%s argument with ambiguous target; length untracked", name)
					exact = false
				}
			}
			argi++
		default:
			exact = false
			argi++
		}
		i++
	}
	return minLen.Add(linear.ConstExpr(minK)), maxLen.Add(linear.ConstExpr(maxK)), exact, sArgs, nil
}
