// Package c2ip implements the C2IP transformation (paper §3.4): it takes
// the inlined, normalized CoreC procedure together with its procedural
// points-to information and produces a nondeterministic integer program
// that tracks the string and integer manipulations of the procedure.
//
// For every abstract location l, C2IP allocates the constraint variables of
// §3.4.1:
//
//	l.val      potential primitive values stored in l (for pointer cells
//	           this doubles as the raw address: 0 = null, >= 1 = valid)
//	l.offset   potential offsets of pointers stored in l
//	l.aSize    allocation size of the region l
//	l.is_nullt whether region l holds a null-terminated string (0/1)
//	l.len      index of the first null byte of region l
//
// Safety checks follow Table 3, statement translation Table 4, and summary
// locations force weak updates guarded by if (unknown) (§3.4.2.3).
package c2ip

import (
	"fmt"
	"strings"

	"repro/internal/cast"
	"repro/internal/clex"
	"repro/internal/corec"
	"repro/internal/ctypes"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/ppt"
)

// Options tunes the transformation.
type Options struct {
	// Naive selects the O(S*V^2) translation of the authors' earlier tool
	// [13]: pointer-offset variables are allocated per (cell, region) pair
	// instead of per cell, and statements are duplicated accordingly. Used
	// by the complexity-shape ablation (paper §3.4.2.4).
	Naive bool
	// StrictZeroStore replaces the paper's Table 4 rule for storing a null
	// byte (len := offset unconditionally) with a guarded transfer that
	// accounts for a possible earlier terminator. Sound in corner cases
	// the paper's cleanness discipline excludes, at the cost of extra
	// false alarms; see DESIGN.md.
	StrictZeroStore bool
}

// Warning is a non-error diagnostic (e.g. non-constant format strings,
// paper §3.4.2.3).
type Warning struct {
	Pos clex.Pos
	Msg string
}

// Result bundles the generated program with transformation diagnostics.
type Result struct {
	Prog     *ip.Program
	Warnings []Warning
	// MemberResolved counts memory-access sites translated with a precise
	// offset/aSize constraint for every possible target region; MemberHavocked
	// counts sites where at least one channel had to be abandoned (unknown
	// target, untracked offset, or the legacy wide-store terminator havoc).
	MemberResolved int
	MemberHavocked int
}

// Transform generates the integer program for fd.
func Transform(prog *corec.Program, fd *cast.FuncDecl, pt *ppt.PPT, opts Options) (*Result, error) {
	x := &xform{
		prog: prog,
		fd:   fd,
		pt:   pt,
		out:  ip.New(fd.Name),
		opts: opts,
		file: prog.File,
	}
	if err := x.run(); err != nil {
		return nil, err
	}
	if err := x.out.Resolve(); err != nil {
		return nil, err
	}
	return &Result{
		Prog:           x.out,
		Warnings:       x.warnings,
		MemberResolved: x.memberResolved,
		MemberHavocked: x.memberHavocked,
	}, nil
}

type xform struct {
	prog     *corec.Program
	file     *cast.File
	fd       *cast.FuncDecl
	pt       *ppt.PPT
	out      *ip.Program
	opts     Options
	warnings []Warning
	nlbl     int
	// err is the first projection error lv met (see lv).
	err error

	// loadBind maps the body index of a conditional to the (temp, pointer)
	// pair of the character load that feeds it on every incoming path, so
	// the condition can be interpreted against the pointer's region (the
	// paper's condition-interpretation device of §3.4.2.2, surviving CoreC
	// normalization — including across the loop-head label of a lowered
	// "while (*s ...)").
	loadBind map[int]loadBinding
	// curIdx is the body index of the statement being translated.
	curIdx int

	// Access-site precision counters (see Result).
	memberResolved int
	memberHavocked int
}

// engine returns the layout engine the program was lowered under; nil (the
// Paper32 packed model) when the program predates the layout subsystem.
func (x *xform) engine() *ctypes.Engine { return x.prog.Layout }

// fieldSensitive reports whether the run's target provides layouts finer
// than the paper's packed model, enabling the guarded wide-store transfer
// and bitfield value opacity.
func (x *xform) fieldSensitive() bool { return x.engine().FieldSensitive() }

// accessPath returns the source access path recorded for a member-address
// temporary of the current function ("" when name is not such a temp).
func (x *xform) accessPath(name string) string {
	return x.prog.AccessPaths[x.fd.Name+"::"+name]
}

// bitfieldAccess reports whether name is a member-address temp for a
// bitfield member under a field-sensitive target. Bitfields share their
// storage unit with neighboring members, so loads and stores through such
// temps must be value-opaque.
func (x *xform) bitfieldAccess(name string) bool {
	if !x.fieldSensitive() || name == "" {
		return false
	}
	return strings.HasSuffix(x.accessPath(name), ":bits")
}

// loadBinding records "t = *p" feeding a conditional.
type loadBinding struct {
	temp string
	ptr  string
}

func (x *xform) warnf(pos clex.Pos, format string, args ...any) {
	x.warnings = append(x.warnings, Warning{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (x *xform) freshLabel(hint string) string {
	l := fmt.Sprintf("__ip_%s%d", hint, x.nlbl)
	x.nlbl++
	return l
}

// ---------------------------------------------------------------------------
// Constraint-variable naming

func (x *xform) valV(l ppt.LocID) int {
	return x.out.Space.Var(x.pt.Loc(l).Name + ".val")
}

func (x *xform) sizeV(l ppt.LocID) int {
	return x.out.Space.Var(x.pt.Loc(l).Name + ".aSize")
}

func (x *xform) ntV(l ppt.LocID) int {
	return x.out.Space.Var(x.pt.Loc(l).Name + ".is_nullt")
}

func (x *xform) lenV(l ppt.LocID) int {
	return x.out.Space.Var(x.pt.Loc(l).Name + ".len")
}

// offV returns the offset variable of cell l. In naive mode ([13]) offsets
// are tracked per (cell, region) pair; region < 0 requests the canonical
// variable used when no region context applies.
func (x *xform) offV(l ppt.LocID, region ppt.LocID) int {
	if x.opts.Naive && region >= 0 {
		return x.out.Space.Var(fmt.Sprintf("%s.offset@%s", x.pt.Loc(l).Name, x.pt.Loc(region).Name))
	}
	return x.out.Space.Var(x.pt.Loc(l).Name + ".offset")
}

// offVars returns every offset variable of cell l: one in normal mode, one
// per pointed-to region in naive mode.
func (x *xform) offVars(l ppt.LocID) []int {
	if !x.opts.Naive {
		return []int{x.offV(l, -1)}
	}
	targets := x.pt.Pt(l)
	if len(targets) == 0 {
		return []int{x.offV(l, -1)}
	}
	var out []int
	for _, r := range targets {
		out = append(out, x.offV(l, r))
	}
	return out
}

// ---------------------------------------------------------------------------
// Emission helpers

func (x *xform) emit(s ip.Stmt) { x.out.Emit(s) }

func (x *xform) assign(v int, e linear.Expr) { x.emit(&ip.Assign{V: v, E: e}) }

func (x *xform) havoc(v int) { x.emit(&ip.Havoc{V: v}) }

func (x *xform) assume(c ip.DNF) {
	if !c.IsTrue() {
		x.emit(&ip.Assume{C: c})
	}
}

// havocBool havocs a 0/1 variable and restores its range.
func (x *xform) havocBool(v int) {
	x.havoc(v)
	ge0 := linear.NewGe(linear.VarExpr(v))
	le1 := linear.NewGe(linear.ConstExpr(1).Sub(linear.VarExpr(v)))
	x.assume(ip.Conj(ge0, le1))
}

// lenInvariant is the convex instrumentation invariant relating a region's
// length, terminator flag, and size: 0 <= len && len + is_nullt <= aSize.
// When is_nullt = 1 this pins the first null inside the region; when
// is_nullt = 0 the abstract len is a don't-care kept in [0, aSize].
func (x *xform) lenInvariant(r ppt.LocID) ip.DNF {
	ln := linear.VarExpr(x.lenV(r))
	nt := linear.VarExpr(x.ntV(r))
	size := linear.VarExpr(x.sizeV(r))
	return ip.Conj(
		linear.NewGe(ln),
		linear.NewGe(size.Sub(ln).Sub(nt)),
	)
}

// havocLen havocs a region length and restores the instrumentation
// invariant.
func (x *xform) havocLen(r ppt.LocID) {
	x.havoc(x.lenV(r))
	x.assume(x.lenInvariant(r))
}

// havocNTLen havocs a region's terminator flag and length together.
func (x *xform) havocNTLen(r ppt.LocID) {
	x.havocBool(x.ntV(r))
	x.havocLen(r)
}

// weakly emits body under an if (unknown) guard when weak is true.
func (x *xform) weakly(weak bool, body func()) {
	if !weak {
		body()
		return
	}
	skip := x.freshLabel("skip")
	x.emit(&ip.IfGoto{C: nil, Target: skip})
	body()
	x.emit(&ip.Label{Name: skip})
}

// choose emits one of the alternatives nondeterministically.
func (x *xform) choose(alts ...func()) {
	if len(alts) == 1 {
		alts[0]()
		return
	}
	end := x.freshLabel("end")
	var labels []string
	for i := 1; i < len(alts); i++ {
		labels = append(labels, x.freshLabel("alt"))
	}
	for i, alt := range alts {
		if i < len(labels) {
			x.emit(&ip.IfGoto{C: nil, Target: labels[i]})
		}
		alt()
		if i < len(alts)-1 {
			x.emit(&ip.Goto{Target: end})
		}
		if i < len(labels) {
			x.emit(&ip.Label{Name: labels[i]})
		}
	}
	x.emit(&ip.Label{Name: end})
}

// strongFor reports whether updates through this candidate set may be
// strong: a single non-summary location.
func (x *xform) strongFor(locs []ppt.LocID) bool {
	return len(locs) == 1 && !x.pt.Loc(locs[0]).Summary
}

// stringRegion reports whether location r carries string instrumentation
// (is_nullt/len): buffer regions, not scalar cells.
func (x *xform) stringRegion(r ppt.LocID) bool {
	return !x.pt.Loc(r).Scalar
}

// ---------------------------------------------------------------------------
// Entry prelude

// prelude constrains the initial state: declared region sizes, boolean
// ranges, string-literal contents, and fresh local buffers.
func (x *xform) prelude() {
	locals := map[string]bool{}
	if x.fd.Body != nil {
		for _, s := range x.fd.Body.Stmts {
			if ds, ok := s.(*cast.DeclStmt); ok {
				locals[ds.Decl.Name] = true
			}
		}
	}
	for _, l := range x.pt.Locs {
		// Region sizes are nonnegative; declared sizes are exact.
		if l.Size > 0 {
			e := linear.VarExpr(x.sizeV(l.ID))
			e = e.Sub(linear.ConstExpr(int64(l.Size)))
			x.assume(ip.Single(linear.NewEq(e)))
		} else {
			x.assume(ip.Single(linear.NewGe(linear.VarExpr(x.sizeV(l.ID)))))
		}
		// String instrumentation applies to buffer regions only; scalar
		// cells carry no terminator (keeping their is_nullt/len variables
		// out of the program saves polyhedra dimensions).
		if !x.stringRegion(l.ID) {
			continue
		}
		nt := x.ntV(l.ID)
		x.assume(ip.Conj(
			linear.NewGe(linear.VarExpr(nt)),
			linear.NewGe(linear.ConstExpr(1).Sub(linear.VarExpr(nt))),
		))
		if l.IsString {
			// A string literal is a null-terminated constant.
			x.assume(ip.Conj(
				eqConst(x.ntV(l.ID), 1),
				eqConst(x.lenV(l.ID), int64(len(l.StringVal))),
			))
		} else {
			// Instrumentation invariant (sound consequence of Def. 2.1).
			x.assume(x.lenInvariant(l.ID))
		}
	}

	// Pointer well-formedness (Def. 2.1 / K&R A7.7): every pointer value a
	// well-defined execution can construct satisfies
	// 0 <= offset <= aSize(target); out-of-range pointers are flagged at
	// their creation, so states entering P satisfy the invariant.
	for _, l := range x.pt.Locs {
		targets := x.pt.Pt(l.ID)
		if len(targets) == 0 {
			continue
		}
		for _, ov := range x.offVars(l.ID) {
			x.assume(ip.Single(linear.NewGe(linear.VarExpr(ov))))
			if len(targets) == 1 {
				size := linear.VarExpr(x.sizeV(targets[0]))
				x.assume(ip.Single(linear.NewGe(size.Sub(linear.VarExpr(ov)))))
			}
		}
	}

	// Formals that reach merged or invented cells point exactly at those
	// cells (Fig. 6(b): rv(f) is "the concrete location which holds the
	// value of *f"), so their offsets are zero and their values non-null.
	for _, p := range x.fd.Params {
		cell, ok := x.pt.Lv(p.Name)
		if !ok {
			continue
		}
		for {
			targets := x.pt.Pt(cell)
			if len(targets) != 1 {
				break
			}
			r := x.pt.Loc(targets[0])
			if !r.ExactBase || !r.Scalar {
				break
			}
			for _, ov := range x.offVars(cell) {
				x.assume(ip.Single(eqConst(ov, 0)))
			}
			x.assume(ip.Single(geConst(x.valV(cell), 1)))
			cell = targets[0]
		}
	}
	// Fresh local buffers start without a known null terminator
	// (Table 4's Alloc rule applied to stack allocation).
	for name := range locals {
		lv, ok := x.pt.Lv(name)
		if !ok {
			continue
		}
		l := x.pt.Loc(lv)
		if l.Size > 0 && !l.Scalar {
			x.assign(x.ntV(lv), linear.ConstExpr(0))
		}
	}
}

func eqConst(v int, k int64) linear.Constraint {
	e := linear.VarExpr(v)
	e = e.Sub(linear.ConstExpr(k))
	return linear.NewEq(e)
}

// geConst returns v >= k.
func geConst(v int, k int64) linear.Constraint {
	e := linear.VarExpr(v)
	e = e.Sub(linear.ConstExpr(k))
	return linear.NewGe(e)
}

// leConst returns v <= k.
func leConst(v int, k int64) linear.Constraint {
	e := linear.ConstExpr(k)
	e = e.Sub(linear.VarExpr(v))
	return linear.NewGe(e)
}

// run drives the translation.
func (x *xform) run() error {
	x.prelude()
	x.out.PreludeEnd = len(x.out.Stmts)
	x.loadBind = x.computeLoadBindings()
	for i, s := range x.fd.Body.Stmts {
		if ds, ok := s.(*cast.DeclStmt); ok {
			_ = ds // locals are handled by the prelude
			continue
		}
		x.curIdx = i
		if err := x.stmt(s); err != nil {
			return err
		}
		if x.err != nil {
			return x.err
		}
	}
	x.emit(&ip.Label{Name: ExitLabel})
	return nil
}

// computeLoadBindings finds conditionals fed by a character load on every
// incoming control path. Handled shapes:
//
//	t = *p; if (t ...)                       (straight line)
//	t = *p; L:; if (t ...)  with every goto L preceded by t = *p
//	                                         (the lowered while (*s ...))
func (x *xform) computeLoadBindings() map[int]loadBinding {
	stmts := x.fd.Body.Stmts
	out := map[int]loadBinding{}

	isLoad := func(s cast.Stmt) (loadBinding, bool) {
		es, ok := s.(*cast.ExprStmt)
		if !ok {
			return loadBinding{}, false
		}
		a, ok := es.X.(*cast.Assign)
		if !ok {
			return loadBinding{}, false
		}
		lhs, ok := a.LHS.(*cast.Ident)
		if !ok {
			return loadBinding{}, false
		}
		u, ok := a.RHS.(*cast.Unary)
		if !ok || u.Op != cast.Deref {
			return loadBinding{}, false
		}
		pid, ok := u.X.(*cast.Ident)
		if !ok || x.elemSize(pid.Type()) != 1 {
			return loadBinding{}, false
		}
		return loadBinding{temp: lhs.Name, ptr: pid.Name}, true
	}
	condTemp := func(c cast.Expr) string {
		b, ok := c.(*cast.Binary)
		if !ok {
			return ""
		}
		if id, ok := b.X.(*cast.Ident); ok {
			if _, lit := b.Y.(*cast.IntLit); lit {
				return id.Name
			}
		}
		if id, ok := b.Y.(*cast.Ident); ok {
			if _, lit := b.X.(*cast.IntLit); lit {
				return id.Name
			}
		}
		return ""
	}
	endsFlow := func(s cast.Stmt) bool {
		switch s.(type) {
		case *cast.Goto, *cast.Return:
			return true
		}
		return false
	}
	gotosTo := map[string][]int{}
	for i, s := range stmts {
		if g, ok := s.(*cast.Goto); ok {
			gotosTo[g.Label] = append(gotosTo[g.Label], i)
		}
	}

	for i, s := range stmts {
		ifs, ok := s.(*cast.If)
		if !ok {
			continue
		}
		t := condTemp(ifs.Cond)
		if t == "" || i == 0 {
			continue
		}
		if b, ok := isLoad(stmts[i-1]); ok && b.temp == t {
			out[i] = b
			continue
		}
		lab, ok := stmts[i-1].(*cast.Labeled)
		if !ok || i < 2 {
			continue
		}
		// Every predecessor of the label must end with the same load.
		var preds []int
		if !endsFlow(stmts[i-2]) {
			preds = append(preds, i-2)
		}
		for _, g := range gotosTo[lab.Label] {
			if g == 0 {
				preds = nil
				break
			}
			preds = append(preds, g-1)
		}
		if len(preds) == 0 {
			continue
		}
		var bind loadBinding
		okAll := true
		for _, k := range preds {
			b, ok := isLoad(stmts[k])
			if !ok || b.temp != t || (bind.ptr != "" && b.ptr != bind.ptr) {
				okAll = false
				break
			}
			bind = b
		}
		if okAll {
			out[i] = bind
		}
	}
	return out
}
