// Package ppt computes procedural points-to information (paper §3.3): the
// projection of the whole-program flow-insensitive points-to state onto a
// single procedure P, biased so that the location a formal parameter points
// to is represented by a single non-summary abstract location rv(f)
// whenever that is sound (the parameterizable check of Fig. 7). This is
// what lets C2IP perform strong updates on properties of *f in well-behaved
// programs, the paper's key device for avoiding false alarms.
package ppt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cast"
	"repro/internal/corec"
	"repro/internal/ctypes"
	"repro/internal/pointer"
)

// LocID identifies an abstract location within a PPT.
type LocID int

// Loc is an abstract location of the procedural points-to state.
type Loc struct {
	ID      LocID
	Name    string
	Summary bool
	// Scalar marks single-cell locations (a variable of int/pointer type or
	// a merged rv(f) cell), on which strong updates of stored-value
	// properties are sound.
	Scalar bool
	// Size is the declared byte size of the region; 0 when unknown.
	Size int
	// StringVal holds the contents for string-literal buffers ("" + ok).
	StringVal string
	IsString  bool
	// Invented marks fresh locations created for formals whose targets are
	// unknown (procedure analyzed without callers, like the paper's N).
	Invented bool
	// ExactBase marks locations that are by construction the exact target
	// of a formal's pointer chain (merged rv(f) nodes and invented cells):
	// a pointer to such a location points at its base (Fig. 6(b)).
	ExactBase bool
}

// PPT is the procedural abstract points-to state of procedure Proc
// (paper Def. 3.2).
type PPT struct {
	Proc string
	Locs []*Loc
	// locOf maps visible variable names (unqualified) to their stack
	// location.
	locOf map[string]LocID
	pt    [][]LocID
	// MergedFormals lists formals whose R-value set was merged into a
	// single rv(f) node by the Fig. 7 algorithm.
	MergedFormals []string
	// unprojected holds the file-scope variables the pointer analysis
	// knows but P cannot touch, so the PPT has no cell for them.
	unprojected map[string]bool
}

// Lv returns the stack/global location of variable name, if visible.
func (p *PPT) Lv(name string) (LocID, bool) {
	id, ok := p.locOf[name]
	return id, ok
}

// Unprojected reports whether name is a file-scope variable the PPT left
// out because P neither names it nor calls anything that could touch it.
// A consumer that meets such a name has drifted from the projection rule.
func (p *PPT) Unprojected(name string) bool { return p.unprojected[name] }

// Pt returns the points-to set of location l.
func (p *PPT) Pt(l LocID) []LocID { return p.pt[l] }

// Rv returns the locations the value stored in variable name may point to.
func (p *PPT) Rv(name string) []LocID {
	lv, ok := p.Lv(name)
	if !ok {
		return nil
	}
	return p.pt[lv]
}

// Loc returns the location record.
func (p *PPT) Loc(l LocID) *Loc { return p.Locs[l] }

// String renders the PPT for golden tests (Fig. 6(b) style).
func (p *PPT) String() string {
	var sb strings.Builder
	for _, l := range p.Locs {
		targets := p.pt[l.ID]
		if len(targets) == 0 {
			continue
		}
		var names []string
		for _, t := range targets {
			names = append(names, p.Locs[t].Name)
		}
		sort.Strings(names)
		sum := ""
		if l.Summary {
			sum = " (summary)"
		}
		fmt.Fprintf(&sb, "%s%s -> {%s}\n", l.Name, sum, strings.Join(names, ", "))
	}
	return sb.String()
}

// Options tunes PPT construction for ablation studies.
type Options struct {
	// DisableMerging skips the Fig. 7 parameterizable merge, forcing weak
	// updates through formals (the naive client of whole-program
	// flow-insensitive information that §1.3 warns about).
	DisableMerging bool
}

// Build computes the PPT for function fd of the normalized program, using
// the global points-to result g.
func Build(prog *corec.Program, fd *cast.FuncDecl, g *pointer.Result, opts Options) *PPT {
	b := &pptBuilder{
		prog: prog,
		fd:   fd,
		g:    g,
		ppt:  &PPT{Proc: fd.Name, locOf: map[string]LocID{}, unprojected: map[string]bool{}},
		gid:  map[pointer.NodeID]LocID{},
	}
	b.build(opts)
	return b.ppt
}

type pptBuilder struct {
	prog *corec.Program
	fd   *cast.FuncDecl
	g    *pointer.Result
	ppt  *PPT
	gid  map[pointer.NodeID]LocID // global node -> local loc
}

// visibleVars returns the names and types of P's visible variables:
// formals, locals, and the globals P can touch (touchedGlobals). The other
// globals are recorded as unprojected.
func (b *pptBuilder) visibleVars() []cast.Param {
	var out []cast.Param
	for _, p := range b.fd.Params {
		out = append(out, p)
	}
	if b.fd.Body != nil {
		for _, s := range b.fd.Body.Stmts {
			if ds, ok := s.(*cast.DeclStmt); ok {
				out = append(out, cast.Param{Name: ds.Decl.Name, Type: ds.Decl.DeclType})
			}
		}
	}
	named, all := b.touchedGlobals()
	for _, d := range b.prog.File.Decls {
		vd, ok := d.(*cast.VarDecl)
		if !ok {
			continue
		}
		if all || named[vd.Name] {
			out = append(out, cast.Param{Name: vd.Name, Type: vd.DeclType})
		} else if _, known := b.g.Lookup(vd.Name); known {
			b.ppt.unprojected[vd.Name] = true
		}
	}
	return out
}

// touchedGlobals returns the identifiers that P's inlined body and its
// own contract mention, plus the modifies entries of every contracted
// callee (C2IP applies those itself, so they are not in the body). A global
// outside this set can be reached only through points-to from a root. all
// reports a statement-level call C2IP models by havocking everything
// reachable from every global: a callee that is not an allocator or a
// format function and has no contract or is no function at all (a call
// through a function pointer). Attribute calls inside conditions are not
// calls.
func (b *pptBuilder) touchedGlobals() (named map[string]bool, all bool) {
	named = map[string]bool{}
	mention := func(e cast.Expr) {
		cast.WalkExpr(e, func(x cast.Expr) bool {
			if id, ok := x.(*cast.Ident); ok {
				named[id.Name] = true
			}
			return true
		})
	}
	if ct := b.fd.Contract; ct != nil {
		mention(ct.Requires)
		mention(ct.Ensures)
		for _, m := range ct.Modifies {
			mention(m)
		}
	}
	if b.fd.Body == nil {
		return named, false
	}
	// Same resolution as cast.File.Lookup: the first definition, else the
	// last prototype.
	funcs := map[string]*cast.FuncDecl{}
	for _, d := range b.prog.File.Decls {
		if fd, ok := d.(*cast.FuncDecl); ok {
			if cur := funcs[fd.Name]; cur == nil || cur.Body == nil {
				funcs[fd.Name] = fd
			}
		}
	}
	for _, s := range b.fd.Body.Stmts {
		cast.ExprsOf(s, mention)
		es, ok := s.(*cast.ExprStmt)
		if !ok {
			continue
		}
		c, ok := es.X.(*cast.Call)
		if a, isAssign := es.X.(*cast.Assign); isAssign {
			c, ok = a.RHS.(*cast.Call)
		}
		if !ok {
			continue
		}
		name := c.FuncName()
		if pointer.AllocFuncs[name] || pointer.FormatFuncs[name] {
			continue
		}
		callee := funcs[name]
		if callee == nil || callee.Contract == nil {
			return named, true
		}
		for _, m := range callee.Contract.Modifies {
			mention(m)
		}
	}
	return named, false
}

func (b *pptBuilder) build(opts Options) {
	vars := b.visibleVars()

	// Import reachable global nodes.
	var roots []pointer.NodeID
	varNode := map[string]pointer.NodeID{}
	for _, v := range vars {
		if id, ok := b.g.LocOf(b.fd.Name, v.Name); ok {
			roots = append(roots, id)
			varNode[v.Name] = id
		}
	}
	reach := map[pointer.NodeID]bool{}
	var stack []pointer.NodeID
	stack = append(stack, roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[n] {
			continue
		}
		reach[n] = true
		stack = append(stack, b.g.PointsTo(n)...)
	}

	// Create local locations for reachable nodes, in deterministic order.
	var order []pointer.NodeID
	for n := range reach {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, n := range order {
		b.importNode(n)
	}
	// Wire variables.
	for _, v := range vars {
		if n, ok := varNode[v.Name]; ok {
			b.ppt.locOf[v.Name] = b.gid[n]
		}
	}
	// Project pt edges.
	for _, n := range order {
		src := b.gid[n]
		for _, t := range b.g.PointsTo(n) {
			if dst, ok := b.gid[t]; ok {
				b.ppt.pt[src] = append(b.ppt.pt[src], dst)
			}
		}
	}

	// Invent fresh targets for pointer-typed formals with unknown callers
	// (paper Fig. 6(b): the location N).
	invented := false
	for _, p := range b.fd.Params {
		if b.inventChain(p.Name, p.Type) {
			invented = true
		}
	}
	// The global analysis never saw the invented locations, so the body's
	// own pointer flow must be closed over them locally.
	if invented {
		b.localClosure()
	}

	if !opts.DisableMerging {
		// Fig. 7: merge each formal's R-value set when sound.
		for _, p := range b.fd.Params {
			if !ctypes.IsPointer(p.Type) {
				continue
			}
			b.tryMerge(p)
		}
	}
}

func (b *pptBuilder) importNode(n pointer.NodeID) LocID {
	if id, ok := b.gid[n]; ok {
		return id
	}
	gn := b.g.Node(n)
	name := gn.Name
	// Strip the qualifier of P's own variables for readability.
	prefix := b.fd.Name + "::"
	if strings.HasPrefix(name, prefix) {
		name = "lv(" + b.displayName(name[len(prefix):]) + ")"
	} else if gn.Kind == pointer.VarNode {
		name = "lv(" + name + ")"
	}
	l := &Loc{
		ID:      LocID(len(b.ppt.Locs)),
		Name:    name,
		Summary: gn.Summary,
		Scalar:  gn.Scalar,
		Size:    gn.Size,
	}
	// Refinement: a heap region allocated in P at a site outside every loop
	// represents one concrete region per invocation, so within P's PPT it
	// is not a summary location.
	if gn.Kind == pointer.HeapNode && gn.AllocIn == b.fd.Name && !b.inLoop(gn.AllocIdx) {
		l.Summary = false
	}
	if gn.Kind == pointer.StringNode || strings.HasPrefix(gn.Name, "__str") {
		if val, ok := b.prog.Strings[gn.Name]; ok {
			l.StringVal = val
			l.IsString = true
		}
	}
	b.ppt.Locs = append(b.ppt.Locs, l)
	b.ppt.pt = append(b.ppt.pt, nil)
	b.gid[n] = l.ID
	return l.ID
}

// displayName renders a local's name for location naming. Under a
// field-sensitive target, member-address temporaries are named by the
// source access path they resolve ("p->count#7" for __t7); the temp number
// keeps distinct accesses to the same member distinct constraint variables.
// Under Paper32 the legacy temp names are kept so reports stay byte-stable.
func (b *pptBuilder) displayName(local string) string {
	if b.prog.Layout.FieldSensitive() {
		if path, ok := b.prog.AccessPaths[b.fd.Name+"::"+local]; ok {
			path = strings.TrimSuffix(path, ":bits")
			return path + "#" + strings.TrimPrefix(local, "__t")
		}
	}
	return local
}

// inLoop reports whether statement index idx of the normalized body lies
// inside a loop (between a label and a backward goto targeting it).
func (b *pptBuilder) inLoop(idx int) bool {
	labelAt := map[string]int{}
	for i, s := range b.fd.Body.Stmts {
		if l, ok := s.(*cast.Labeled); ok {
			labelAt[l.Label] = i
		}
	}
	for i, s := range b.fd.Body.Stmts {
		if g, ok := s.(*cast.Goto); ok {
			if j, ok := labelAt[g.Label]; ok && j <= i && j <= idx && idx <= i {
				return true
			}
		}
	}
	return false
}

// newLoc appends a synthetic location.
func (b *pptBuilder) newLoc(name string, scalar bool, size int, invented bool) *Loc {
	l := &Loc{
		ID:       LocID(len(b.ppt.Locs)),
		Name:     name,
		Scalar:   scalar,
		Size:     size,
		Invented: invented,
	}
	b.ppt.Locs = append(b.ppt.Locs, l)
	b.ppt.pt = append(b.ppt.pt, nil)
	return l
}

// inventChain gives a pointer-typed formal fresh targets when the global
// analysis found none (the procedure is analyzed without its callers).
// A formal of type T** yields lv(f) -> rv(f) -> rv2(f); invention stops at
// a non-pointer pointee. It reports whether any location was invented.
func (b *pptBuilder) inventChain(name string, t ctypes.Type) bool {
	lv, ok := b.ppt.locOf[name]
	if !ok {
		return false
	}
	depth := 1
	cur := lv
	curT := t
	made := false
	for ctypes.IsPointer(curT) {
		if len(b.ppt.pt[cur]) > 0 {
			return made // has real targets; nothing to invent
		}
		elem := ctypes.Elem(curT)
		label := fmt.Sprintf("rv(%s)", name)
		if depth > 1 {
			label = fmt.Sprintf("rv%d(%s)", depth, name)
		}
		// An invented target is a single cell when the pointee is itself a
		// pointer (the rv(f) of a char** formal); char/int pointees denote
		// buffers of unknown extent.
		// A cell's size is its pointee's size (a char** formal's rv(f)
		// holds one 4-byte char* slot).
		size := 0
		if ctypes.IsPointer(elem) {
			size = b.prog.Layout.SizeOf(elem)
		}
		nl := b.newLoc(label, ctypes.IsPointer(elem), size, true)
		nl.ExactBase = true
		b.ppt.pt[cur] = []LocID{nl.ID}
		cur = nl.ID
		curT = elem
		depth++
		made = true
	}
	return made
}

// localClosure re-closes the procedure body's pointer flow over the PPT's
// own locations so invented targets propagate into locals.
func (b *pptBuilder) localClosure() {
	addAll := func(dst LocID, srcs []LocID) bool {
		changed := false
		have := map[LocID]bool{}
		for _, t := range b.ppt.pt[dst] {
			have[t] = true
		}
		for _, s := range srcs {
			if !have[s] {
				have[s] = true
				b.ppt.pt[dst] = append(b.ppt.pt[dst], s)
				changed = true
			}
		}
		return changed
	}
	lvOf := func(e cast.Expr) (LocID, bool) {
		id, ok := e.(*cast.Ident)
		if !ok {
			return 0, false
		}
		l, ok := b.ppt.locOf[id.Name]
		return l, ok
	}
	for changed := true; changed; {
		changed = false
		for _, s := range b.fd.Body.Stmts {
			es, ok := s.(*cast.ExprStmt)
			if !ok {
				continue
			}
			a, ok := es.X.(*cast.Assign)
			if !ok {
				continue
			}
			// Store: *p = y.
			if u, ok := a.LHS.(*cast.Unary); ok && u.Op == cast.Deref {
				pl, ok := lvOf(u.X)
				if !ok {
					continue
				}
				for _, id := range storeSources(a.RHS) {
					if sl, ok := b.ppt.locOf[id.Name]; ok {
						srcs := b.ppt.pt[sl]
						if isRegion(id) {
							srcs = []LocID{sl}
						}
						for _, t := range b.ppt.pt[pl] {
							if addAll(t, srcs) {
								changed = true
							}
						}
					}
				}
				continue
			}
			dst, ok := lvOf(a.LHS)
			if !ok {
				continue
			}
			switch r := a.RHS.(type) {
			case *cast.Ident:
				if sl, ok := b.ppt.locOf[r.Name]; ok {
					if isRegion(r) {
						changed = addAll(dst, []LocID{sl}) || changed
					} else {
						changed = addAll(dst, b.ppt.pt[sl]) || changed
					}
				}
			case *cast.Unary:
				switch r.Op {
				case cast.Deref:
					if pl, ok := lvOf(r.X); ok {
						for _, t := range b.ppt.pt[pl] {
							changed = addAll(dst, b.ppt.pt[t]) || changed
						}
					}
				case cast.Addr:
					if vl, ok := lvOf(r.X); ok {
						changed = addAll(dst, []LocID{vl}) || changed
					}
				}
			case *cast.Binary:
				for _, op := range []cast.Expr{r.X, r.Y} {
					if id, ok := op.(*cast.Ident); ok {
						if sl, ok := b.ppt.locOf[id.Name]; ok {
							if isRegion(id) {
								changed = addAll(dst, []LocID{sl}) || changed
							} else {
								changed = addAll(dst, b.ppt.pt[sl]) || changed
							}
						}
					}
				}
			case *cast.Cast:
				if id, ok := r.X.(*cast.Ident); ok {
					if sl, ok := b.ppt.locOf[id.Name]; ok {
						if isRegion(id) {
							changed = addAll(dst, []LocID{sl}) || changed
						} else {
							changed = addAll(dst, b.ppt.pt[sl]) || changed
						}
					}
				}
			}
		}
	}
}

func isRegion(id *cast.Ident) bool {
	t := id.Type()
	return t != nil && (ctypes.IsArray(t) || ctypes.IsFunc(t))
}

func storeSources(e cast.Expr) []*cast.Ident {
	switch x := e.(type) {
	case *cast.Ident:
		return []*cast.Ident{x}
	case *cast.Unary:
		if x.Op == cast.Addr {
			return nil // handled as address store; invented flows rare here
		}
		if id, ok := x.X.(*cast.Ident); ok {
			return []*cast.Ident{id}
		}
	case *cast.Binary:
		var out []*cast.Ident
		if id, ok := x.X.(*cast.Ident); ok {
			out = append(out, id)
		}
		if id, ok := x.Y.(*cast.Ident); ok {
			out = append(out, id)
		}
		return out
	case *cast.Cast:
		if id, ok := x.X.(*cast.Ident); ok {
			return []*cast.Ident{id}
		}
	}
	return nil
}

// tryMerge implements the parameterizable check of Fig. 7 and performs the
// merge when it succeeds.
func (b *pptBuilder) tryMerge(p cast.Param) {
	lf, ok := b.ppt.locOf[p.Name]
	if !ok {
		return
	}
	if b.ppt.Locs[lf].Summary {
		return
	}
	targets := b.ppt.pt[lf]
	if len(targets) <= 1 {
		// Nothing to merge; a single non-summary target already permits
		// strong updates. Record it as effectively merged for reporting.
		if len(targets) == 1 && !b.ppt.Locs[targets[0]].Summary {
			b.ppt.MergedFormals = append(b.ppt.MergedFormals, p.Name)
		}
		return
	}
	for _, t := range targets {
		if b.ppt.Locs[t].Summary {
			return
		}
	}
	// For every choice of kept edge i, every other target must become
	// unreachable from the visible variables.
	if !b.parameterizable(lf, targets) {
		return
	}

	// Merge: a fresh non-summary rv(f) replaces all targets.
	elem := ctypes.Elem(p.Type)
	size := 0
	sizesAgree := true
	for _, t := range targets {
		if b.ppt.Locs[t].Size == 0 {
			sizesAgree = false
		} else if size == 0 {
			size = b.ppt.Locs[t].Size
		} else if size != b.ppt.Locs[t].Size {
			sizesAgree = false
		}
	}
	if !sizesAgree {
		size = 0
	}
	merged := b.newLoc(fmt.Sprintf("rv(%s)", p.Name), elem != nil && ctypes.IsScalar(elem), size, false)
	merged.ExactBase = true
	// pt(rv(f)) = union of pt(li).
	seen := map[LocID]bool{}
	for _, t := range targets {
		for _, u := range b.ppt.pt[t] {
			if !seen[u] {
				seen[u] = true
				b.ppt.pt[merged.ID] = append(b.ppt.pt[merged.ID], u)
			}
		}
	}
	// Redirect every edge into a target to the merged node.
	inTargets := map[LocID]bool{}
	for _, t := range targets {
		inTargets[t] = true
	}
	for i := range b.ppt.pt {
		if LocID(i) == merged.ID {
			continue
		}
		var out []LocID
		added := false
		for _, t := range b.ppt.pt[i] {
			if inTargets[t] {
				if !added {
					out = append(out, merged.ID)
					added = true
				}
				continue
			}
			out = append(out, t)
		}
		b.ppt.pt[i] = out
	}
	b.ppt.MergedFormals = append(b.ppt.MergedFormals, p.Name)
}

// parameterizable checks, for each i, that removing the edges lf->lj (j!=i)
// leaves every lj (j!=i) unreachable from the visible variables (Fig. 7).
func (b *pptBuilder) parameterizable(lf LocID, targets []LocID) bool {
	for i := range targets {
		removed := map[LocID]bool{}
		for j, t := range targets {
			if j != i {
				removed[t] = true
			}
		}
		// Reachability from all visible roots, not following removed
		// direct edges from lf.
		reach := map[LocID]bool{}
		var stack []LocID
		for _, root := range b.ppt.locOf {
			stack = append(stack, root)
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[n] {
				continue
			}
			reach[n] = true
			for _, t := range b.ppt.pt[n] {
				if n == lf && removed[t] {
					continue
				}
				stack = append(stack, t)
			}
		}
		for j, t := range targets {
			if j != i && reach[t] {
				return false
			}
		}
	}
	return true
}
