// Package derive implements the contract-derivation algorithms of paper §4:
//
//	ASPost  — a forward integer analysis computing an approximation of the
//	          strongest postcondition: the linear inequalities that hold at
//	          the procedure exit, with local state eliminated.
//	AWPre   — a backward integer analysis computing an approximation of the
//	          weakest liberal precondition from the (possibly strengthened)
//	          postcondition.
//
// Both analyses run over the same integer program C2IP produces for the
// procedure with a vacuous contract (true pre/post plus side-effect
// information); the write-back step (§4.2) converts the resulting IP
// inequalities into C contract expressions over the formal parameters and
// globals, using the procedural points-to information to name abstract
// locations by access paths.
package derive

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/c2ip"
	"repro/internal/cast"
	"repro/internal/corec"
	"repro/internal/ctypes"
	"repro/internal/inline"
	"repro/internal/ip"
	"repro/internal/pointer"
	"repro/internal/polyhedra"
	"repro/internal/ppt"
	"sort"
)

// Options configures derivation.
type Options struct {
	PointerMode pointer.Mode
}

// Result is a derived contract.
type Result struct {
	Proc string
	// RequiresText / EnsuresText are the derived clauses rendered in the
	// contract language ("" when nothing was derived).
	RequiresText string
	EnsuresText  string
	// Requires / Ensures are the same clauses parsed back into AST form,
	// ready to strengthen the procedure's contract.
	Requires cast.Expr
	Ensures  cast.Expr
	// Modifies is the (possibly synthesized) side-effect clause used.
	Modifies []cast.Expr
	CPU      time.Duration
	Space    uint64
}

// Derive runs ASPost then AWPre for the procedure and returns the derived
// contract. prog must be the normalized program containing proc's
// definition; the procedure's own pre/postcondition is ignored (treated as
// vacuous), per §4 step 2.
func Derive(prog *corec.Program, proc string, opts Options) (*Result, error) {
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()

	fd := prog.File.Lookup(proc)
	if fd == nil || fd.Body == nil {
		return nil, fmt.Errorf("derive: no definition for %s", proc)
	}

	// Step 1: side-effect information.
	modifies := synthesizeModifies(prog, fd, opts)

	// Step 2+3: vacuous contract + designated variables, forward analysis.
	vac, snaps, pt2, ipProg, err := buildIP(prog, proc, modifies, opts)
	if err != nil {
		return nil, err
	}
	_ = vac
	ares, err := analysis.Analyze(ipProg, analysis.Options{})
	if err != nil {
		return nil, err
	}

	var globals []cast.Param
	for _, d := range prog.File.Decls {
		if vd, ok := d.(*cast.VarDecl); ok {
			globals = append(globals, cast.Param{Name: vd.Name, Type: vd.DeclType})
		}
	}
	wb := newWriteback(pt2, fd, snaps, globals)

	res := &Result{Proc: proc, Modifies: modifies}

	// The prelude state captures C2IP's own assumptions; conditions implied
	// by it are tautologies of the memory model, not derived facts.
	prelude := preludePoly(ares, ipProg.PreludeEnd)

	// ASPost: exit-state inequalities over expressible variables.
	if exit, ok := ares.ExitState.(interface{ Poly() *polyhedra.Poly }); ok {
		post := exit.Poly().SystemOver(func(v int) bool {
			return wb.expressible(ipProg.Space.Name(v), true)
		})
		res.EnsuresText = wb.render(post, ipProg, prelude, true)
	}

	// Step 4: AWPre — backward analysis from the strengthened postcondition.
	pre := backward(ipProg, opts)
	if pre != nil {
		preSys := pre.SystemOver(func(v int) bool {
			return wb.expressible(ipProg.Space.Name(v), false)
		})
		res.RequiresText = wb.render(preSys, ipProg, prelude, false)
	}

	// Step 5: write-back to parsed contract expressions.
	if res.EnsuresText != "" {
		if e, err := wb.parse(res.EnsuresText, fd, true); err == nil {
			res.Ensures = e
		}
	}
	if res.RequiresText != "" {
		if e, err := wb.parse(res.RequiresText, fd, false); err == nil {
			res.Requires = e
		}
	}

	res.CPU = time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	res.Space = msAfter.TotalAlloc - msBefore.TotalAlloc
	return res, nil
}

// buildIP assembles the derivation pipeline: vacuous contract, designated
// snapshot variables for every modified property, inline, renormalize,
// pointer analysis, PPT, C2IP.
func buildIP(prog *corec.Program, proc string, modifies []cast.Expr, opts Options) (*cast.File, inline.Snapshots, *ppt.PPT, *ip.Program, error) {
	vacFile := withVacuousContract(prog.File, proc, modifies)
	vacProg := &corec.Program{File: vacFile, Strings: prog.Strings}

	// Designated variables: snapshot every modified property at entry.
	var extra []cast.Expr
	for _, m := range modifies {
		extra = append(extra, snapshotExprFor(m)...)
	}

	inlined, snaps, err := inline.FileEx(vacProg, proc, extra)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	nprog, err := corec.Renormalize(vacProg, inlined)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fd := nprog.File.Lookup(proc)
	if fd == nil {
		return nil, nil, nil, nil, fmt.Errorf("derive: inlined %s missing", proc)
	}
	g := pointer.Analyze(nprog, opts.PointerMode)
	pt := ppt.Build(nprog, fd, g, ppt.Options{})
	res, err := c2ip.Transform(nprog, fd, pt, c2ip.Options{})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return inlined, snaps, pt, res.Prog, nil
}

// snapshotExprFor expands a modifies entry into the entry-time expressions
// worth recording: the entry itself for attribute entries, the value and
// the associated string properties for lvalue entries.
func snapshotExprFor(m cast.Expr) []cast.Expr {
	switch e := m.(type) {
	case *cast.Call:
		return []cast.Expr{cast.CloneExpr(m)}
	case *cast.Ident, *cast.Unary:
		out := []cast.Expr{cast.CloneExpr(m)}
		// For pointer-valued entries also record the entry string length
		// (the paper's running example records *PtrEndText.offset et al.).
		if t := e.Type(); t != nil && ctypes.IsPointer(ctypes.Decay(t)) {
			if ctypes.IsChar(ctypes.Elem(ctypes.Decay(t))) {
				out = append(out, attrCall("strlen", cast.CloneExpr(m)))
			}
		}
		return out
	}
	return nil
}

func attrCall(name string, arg cast.Expr) cast.Expr {
	fn := &cast.Ident{Name: name}
	c := &cast.Call{Fun: fn, Args: []cast.Expr{arg}}
	c.SetType(ctypes.Int)
	return c
}

// withVacuousContract returns a copy of file where proc's contract is
// {requires true; modifies M; ensures true}.
func withVacuousContract(file *cast.File, proc string, modifies []cast.Expr) *cast.File {
	out := &cast.File{Name: file.Name}
	for _, d := range file.Decls {
		fd, ok := d.(*cast.FuncDecl)
		if !ok || fd.Name != proc {
			out.Decls = append(out.Decls, d)
			continue
		}
		nf := *fd
		nf.Contract = &cast.Contract{Modifies: modifies}
		out.Decls = append(out.Decls, &nf)
	}
	return out
}

// preludePoly reconstructs the abstract state right after C2IP's prelude.
func preludePoly(res *analysis.Result, preludeEnd int) *polyhedra.Poly {
	if preludeEnd < len(res.States) {
		if ps, ok := res.States[preludeEnd].(interface{ Poly() *polyhedra.Poly }); ok {
			return ps.Poly()
		}
	}
	return polyhedra.Universe(res.Prog.NumVars())
}

// ---------------------------------------------------------------------------
// Side-effect synthesis

// synthesizeModifies computes a modifies clause (§4 step 1): the body's
// stores and calls are scanned and mapped to access paths over the formals
// and globals (a simple mod analysis in the spirit of [34]). A declared
// modifies clause is not consulted.
func synthesizeModifies(prog *corec.Program, fd *cast.FuncDecl, opts Options) []cast.Expr {
	g := pointer.Analyze(prog, opts.PointerMode)
	pt := ppt.Build(prog, fd, g, ppt.Options{})

	roots := append([]cast.Param(nil), fd.Params...)
	for _, d := range prog.File.Decls {
		if vd, ok := d.(*cast.VarDecl); ok {
			roots = append(roots, cast.Param{Name: vd.Name, Type: vd.DeclType})
		}
	}
	paths := buildPaths(pt, roots)

	// Collect written locations.
	written := map[ppt.LocID]bool{}
	charWritten := map[ppt.LocID]bool{}
	for _, s := range fd.Body.Stmts {
		es, ok := s.(*cast.ExprStmt)
		if !ok {
			continue
		}
		switch e := es.X.(type) {
		case *cast.Assign:
			if u, ok := e.LHS.(*cast.Unary); ok && u.Op == cast.Deref {
				if id, ok := u.X.(*cast.Ident); ok {
					for _, r := range pt.Rv(id.Name) {
						written[r] = true
						if elemIsChar(id.Type()) {
							charWritten[r] = true
						}
					}
				}
			}
			if c, ok := e.RHS.(*cast.Call); ok {
				markCallEffects(pt, c, written, charWritten)
			}
		case *cast.Call:
			markCallEffects(pt, e, written, charWritten)
		}
	}

	var out []cast.Expr
	seen := map[string]bool{}
	add := func(e cast.Expr) {
		key := cast.ExprString(e)
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	for loc := range written {
		if charWritten[loc] {
			// Buffer contents: name the region through a pointer into it.
			if e, ok := paths.into[loc]; ok {
				if id, isIdent := e.(*cast.Ident); isIdent && elemIsChar(id.Type()) {
					add(cast.CloneExpr(e)) // bare char* convention
				} else {
					add(attrCall("strlen", cast.CloneExpr(e)))
					add(attrCall("is_nullt", cast.CloneExpr(e)))
				}
			}
			continue
		}
		// Cell contents: name the cell as an lvalue.
		if e, ok := paths.cell[loc]; ok {
			if _, isIdent := e.(*cast.Ident); isIdent {
				continue // a visible variable itself is never a side effect via pointers
			}
			add(cast.CloneExpr(e))
		}
	}
	sortExprs(out)
	return out
}

// markCallEffects marks the regions reachable from a call's pointer
// arguments as potentially written.
func markCallEffects(pt *ppt.PPT, c *cast.Call, written, charWritten map[ppt.LocID]bool) {
	for _, a := range c.Args {
		if id, ok := a.(*cast.Ident); ok {
			for _, r := range pt.Rv(id.Name) {
				written[r] = true
				if elemIsChar(id.Type()) {
					charWritten[r] = true
				}
			}
		}
	}
}

// sortExprs orders modifies entries deterministically.
func sortExprs(es []cast.Expr) {
	sortFn := func(i, j int) bool {
		return cast.ExprString(es[i]) < cast.ExprString(es[j])
	}
	sort.Slice(es, sortFn)
}

func elemIsChar(t ctypes.Type) bool {
	e := ctypes.Elem(ctypes.Decay(t))
	return e != nil && ctypes.IsChar(e)
}
