package derive

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/ctypes"
	"repro/internal/inline"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/polyhedra"
	"repro/internal/ppt"
)

// paths names abstract locations by access expressions over formals and
// globals (§4.2: "each abstract location corresponds to a set of L-value
// expressions"; we keep the shortest one).
type paths struct {
	// cell[l] is an lvalue expression whose cell is l (x, *x, **x).
	cell map[ppt.LocID]cast.Expr
	// into[l] is a pointer expression whose value points into region l
	// (x when x points to l, *x one level down).
	into map[ppt.LocID]cast.Expr
}

// buildPaths explores access chains of depth <= 2 from the given roots.
func buildPaths(pt *ppt.PPT, roots []cast.Param) *paths {
	p := &paths{cell: map[ppt.LocID]cast.Expr{}, into: map[ppt.LocID]cast.Expr{}}
	for _, r := range roots {
		lv, ok := pt.Lv(r.Name)
		if !ok {
			continue
		}
		id := &cast.Ident{Name: r.Name}
		id.SetType(r.Type)
		if _, done := p.cell[lv]; !done {
			p.cell[lv] = id
		}
		curExpr := cast.Expr(id)
		curCells := []ppt.LocID{lv}
		curType := r.Type
		for depth := 0; depth < 2; depth++ {
			dt := ctypes.Decay(curType)
			if !ctypes.IsPointer(dt) {
				break
			}
			elem := ctypes.Elem(dt)
			var next []ppt.LocID
			for _, c := range curCells {
				for _, t := range pt.Pt(c) {
					if _, done := p.into[t]; !done {
						p.into[t] = curExpr
					}
					next = append(next, t)
				}
			}
			deref := &cast.Unary{Op: cast.Deref, X: curExpr}
			deref.SetType(elem)
			for _, n := range next {
				if _, done := p.cell[n]; !done {
					p.cell[n] = deref
				}
			}
			curExpr = deref
			curCells = next
			curType = elem
		}
	}
	return p
}

// writeback converts IP-level constraint systems to contract text.
type writeback struct {
	pt    *ppt.PPT
	fd    *cast.FuncDecl
	snaps inline.Snapshots
	paths *paths
	// locByName finds locations from IP variable names.
	locByName map[string]ppt.LocID
}

func newWriteback(pt *ppt.PPT, fd *cast.FuncDecl, snaps inline.Snapshots, globals []cast.Param) *writeback {
	roots := append([]cast.Param(nil), fd.Params...)
	roots = append(roots, globals...)
	// The designated return_value variable is part of the contract
	// vocabulary (paper §2.2).
	if _, isVoid := fd.Ret.(ctypes.Void); !isVoid {
		roots = append(roots, cast.Param{Name: cast.ReturnValueName, Type: fd.Ret})
	}
	wb := &writeback{
		pt:        pt,
		fd:        fd,
		snaps:     snaps,
		paths:     buildPaths(pt, roots),
		locByName: map[string]ppt.LocID{},
	}
	for _, l := range pt.Locs {
		wb.locByName[l.Name] = l.ID
	}
	return wb
}

// splitVar decomposes an IP variable name "loc.prop".
func (wb *writeback) splitVar(name string) (ppt.LocID, string, bool) {
	i := strings.LastIndex(name, ".")
	if i < 0 {
		return 0, "", false
	}
	loc, ok := wb.locByName[name[:i]]
	if !ok {
		return 0, "", false
	}
	return loc, name[i+1:], false || true && ok
}

// snapExprOf resolves the snapshot expression recorded for a location that
// is the cell of a __preN temporary ("lv(__pre0)" -> pre-arg expression).
func (wb *writeback) snapExprOf(locName string) (cast.Expr, bool) {
	if !strings.HasPrefix(locName, "lv(__pre") {
		return nil, false
	}
	name := strings.TrimSuffix(strings.TrimPrefix(locName, "lv("), ")")
	e, ok := wb.snaps[name]
	return e, ok
}

// terms is a symbolic linear combination over rendered atom strings.
type terms struct {
	coef  map[string]*big.Int
	konst *big.Int
}

func newTerms() *terms {
	return &terms{coef: map[string]*big.Int{}, konst: new(big.Int)}
}

func (t *terms) add(atom string, k *big.Int) {
	c, ok := t.coef[atom]
	if !ok {
		c = new(big.Int)
		t.coef[atom] = c
	}
	c.Add(c, k)
	if c.Sign() == 0 {
		delete(t.coef, atom)
	}
}

// atomsFor maps one IP variable to its symbolic combination, or ok=false.
// isPost permits pre() atoms (ensures clauses only).
func (wb *writeback) atomsFor(name string, isPost bool) ([]struct {
	atom string
	coef int64
}, bool) {
	type at = struct {
		atom string
		coef int64
	}
	loc, prop, ok := wb.splitVar(name)
	if !ok {
		return nil, false
	}
	locName := wb.pt.Loc(loc).Name

	// Snapshot cells render through pre(...).
	if snapE, isSnap := wb.snapExprOf(locName); isSnap {
		if !isPost {
			return nil, false
		}
		es := cast.ExprString(snapE)
		switch prop {
		case "val":
			if hasAttrs(snapE) {
				// Property snapshot: the int temp equals the recorded
				// attribute expression at entry.
				return []at{{atom: "pre(" + es + ")", coef: 1}}, true
			}
			return []at{{atom: "pre(" + es + ")", coef: 1}}, true
		case "offset":
			return []at{{atom: "offset(pre(" + es + "))", coef: 1}}, true
		}
		return nil, false
	}

	switch prop {
	case "val":
		e, ok := wb.paths.cell[loc]
		if !ok {
			return nil, false
		}
		t := ctypes.Decay(typeOf(e))
		if ctypes.IsPointer(t) {
			// Raw address values have no contract syntax.
			return nil, false
		}
		return []at{{atom: cast.ExprString(e), coef: 1}}, true
	case "offset":
		e, ok := wb.paths.cell[loc]
		if !ok {
			return nil, false
		}
		if !ctypes.IsPointer(ctypes.Decay(typeOf(e))) {
			return nil, false
		}
		return []at{{atom: "offset(" + cast.ExprString(e) + ")", coef: 1}}, true
	case "aSize":
		e, ok := wb.paths.into[loc]
		if !ok {
			return nil, false
		}
		es := cast.ExprString(e)
		return []at{{atom: "alloc(" + es + ")", coef: 1}, {atom: "offset(" + es + ")", coef: 1}}, true
	case "len":
		e, ok := wb.paths.into[loc]
		if !ok {
			return nil, false
		}
		es := cast.ExprString(e)
		return []at{{atom: "strlen(" + es + ")", coef: 1}, {atom: "offset(" + es + ")", coef: 1}}, true
	case "is_nullt":
		e, ok := wb.paths.into[loc]
		if !ok {
			return nil, false
		}
		return []at{{atom: "is_nullt(" + cast.ExprString(e) + ")", coef: 1}}, true
	}
	return nil, false
}

func typeOf(e cast.Expr) ctypes.Type {
	if t := e.Type(); t != nil {
		return t
	}
	return ctypes.Int
}

func hasAttrs(e cast.Expr) bool {
	found := false
	cast.WalkExpr(e, func(x cast.Expr) bool {
		if c, ok := x.(*cast.Call); ok {
			switch c.FuncName() {
			case "strlen", "alloc", "offset", "is_nullt", "is_within_bounds":
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// expressible reports whether an IP variable can appear in a write-back
// clause.
func (wb *writeback) expressible(name string, isPost bool) bool {
	_, ok := wb.atomsFor(name, isPost)
	return ok
}

// render converts the constraint system into contract text, dropping
// constraints already implied by the prelude state (memory-model
// tautologies) and conjoining the rest with &&.
func (wb *writeback) render(sys linear.System, prog *ip.Program, prelude *polyhedra.Poly, isPost bool) string {
	var clauses []string
	for _, c := range sys {
		if c.IsTautology() {
			continue
		}
		if prelude != nil && prelude.Entails(c) {
			continue
		}
		txt, atoms, ok := wb.renderConstraint(c, prog, isPost)
		if !ok {
			continue
		}
		if isPost && allPreAtoms(atoms) {
			// A conjunct over entry-state snapshots only says nothing
			// about the exit state; it belongs (if anywhere) in requires.
			continue
		}
		clauses = append(clauses, txt)
	}
	sort.Strings(clauses)
	return strings.Join(clauses, " && ")
}

// allPreAtoms reports whether every atom is an entry-state snapshot.
func allPreAtoms(atoms []string) bool {
	if len(atoms) == 0 {
		return true
	}
	for _, a := range atoms {
		if !strings.HasPrefix(a, "pre(") && !strings.HasPrefix(a, "offset(pre(") {
			return false
		}
	}
	return true
}

// renderConstraint renders one constraint as contract text, returning the
// atoms used.
func (wb *writeback) renderConstraint(c linear.Constraint, prog *ip.Program, isPost bool) (string, []string, bool) {
	t := newTerms()
	t.konst.Set(c.E.Const())
	for _, v := range c.E.Vars() {
		atoms, ok := wb.atomsFor(prog.Space.Name(v), isPost)
		if !ok {
			return "", nil, false
		}
		k := c.E.Coef(v)
		for _, a := range atoms {
			t.add(a.atom, new(big.Int).Mul(k, big.NewInt(a.coef)))
		}
	}
	// Move negative terms and the constant to the right.
	var lhs, rhs []string
	var atoms []string
	for a := range t.coef {
		atoms = append(atoms, a)
	}
	sort.Strings(atoms)
	for _, a := range atoms {
		k := t.coef[a]
		side := &lhs
		kk := new(big.Int).Set(k)
		if k.Sign() < 0 {
			side = &rhs
			kk.Neg(kk)
		}
		if kk.Cmp(big.NewInt(1)) == 0 {
			*side = append(*side, a)
		} else {
			*side = append(*side, kk.String()+" * "+a)
		}
	}
	kon := new(big.Int).Neg(t.konst)
	if kon.Sign() > 0 || len(rhs) == 0 {
		rhs = append(rhs, kon.String())
	} else if kon.Sign() < 0 {
		lhs = append(lhs, new(big.Int).Neg(kon).String())
	}
	if len(t.coef) == 0 {
		return "", nil, false // all atoms cancelled: nothing worth stating
	}
	if len(lhs) == 0 {
		lhs = append(lhs, "0")
	}
	op := ">="
	if c.Rel == linear.Eq {
		op = "=="
	}
	return fmt.Sprintf("%s %s %s", strings.Join(lhs, " + "), op, strings.Join(rhs, " + ")), atoms, true
}

// parse re-parses a rendered clause against the procedure's formals.
func (wb *writeback) parse(text string, fd *cast.FuncDecl, isPost bool) (cast.Expr, error) {
	vars := map[string]ctypes.Type{}
	for _, p := range fd.Params {
		vars[p.Name] = p.Type
	}
	return cparse.ParseExpr(text, vars)
}
