// Package pointer implements the whole-program flow-insensitive points-to
// analysis that CSSV consumes (paper §3.3.2). The paper used GOLF [8,9],
// which was never released; this package provides two sound substitutes
// behind one interface:
//
//   - Inclusion (Andersen-style with directional assignment edges): at
//     least as precise as GOLF's one-level flow, the default.
//   - Unification (Steensgaard): the cheap mode, used by the ablation
//     benchmarks to quantify how much directionality buys.
//
// The result is the global abstract points-to state Gstate of §3.3.2:
// abstract locations for every variable, allocation site, string literal
// and function; loc mapping variables to their stack/global locations;
// pt mapping locations to the locations they may point to; and sm marking
// summary locations (which may represent several concrete base addresses).
package pointer

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cast"
	"repro/internal/corec"
	"repro/internal/ctypes"
)

// Mode selects the analysis algorithm.
type Mode int

// Analysis modes.
const (
	Inclusion   Mode = iota // Andersen-style, directional (default)
	Unification             // Steensgaard-style, bidirectional
)

// NodeID identifies an abstract location.
type NodeID int

// NodeKind classifies abstract locations.
type NodeKind int

// Node kinds.
const (
	VarNode    NodeKind = iota // global or stack location of a variable
	HeapNode                   // allocation site
	StringNode                 // string literal buffer
	FuncNode                   // a function (for function pointers)
)

// Node is an abstract location.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// Name: "f::x" for locals/formals, "x" for globals, "alloc@f:12" for
	// heap, "__str0" for strings, function name for FuncNode.
	Name string
	// Summary marks locations that may represent more than one concrete
	// base address in a single concrete state (sm = infinity).
	Summary bool
	// Scalar marks locations holding a single scalar cell (a variable of
	// int or pointer type), eligible for strong value updates.
	Scalar bool
	// Size is the declared byte size of the region (0 if unknown/dynamic).
	Size int
	// FuncName is set for FuncNode.
	FuncName string
	// AllocIn/AllocIdx identify the allocation site of a HeapNode: the
	// enclosing function and the statement index within its normalized
	// body. PPT construction uses them to refine summary-ness (a non-loop
	// site executes once per invocation).
	AllocIn  string
	AllocIdx int
}

// Result is the global points-to state.
type Result struct {
	Nodes []*Node
	// pt[i] is the set of node IDs that location i may point to.
	pt []map[NodeID]bool
	// locs maps qualified variable names to their location node.
	locs map[string]NodeID
}

// Lookup returns the location node of the qualified variable name.
func (r *Result) Lookup(qualified string) (NodeID, bool) {
	id, ok := r.locs[qualified]
	return id, ok
}

// LocOf returns the location of variable name as seen from function fn
// (fn-local first, then global).
func (r *Result) LocOf(fn, name string) (NodeID, bool) {
	if id, ok := r.locs[fn+"::"+name]; ok {
		return id, true
	}
	id, ok := r.locs[name]
	return id, ok
}

// PointsTo returns the sorted points-to set of n.
func (r *Result) PointsTo(n NodeID) []NodeID {
	var out []NodeID
	for t := range r.pt[n] {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Node returns the node with the given ID.
func (r *Result) Node(id NodeID) *Node { return r.Nodes[id] }

// String renders the points-to graph for debugging and golden tests.
func (r *Result) String() string {
	var sb strings.Builder
	for _, n := range r.Nodes {
		targets := r.PointsTo(n.ID)
		if len(targets) == 0 {
			continue
		}
		var names []string
		for _, t := range targets {
			names = append(names, r.Nodes[t].Name)
		}
		sum := ""
		if n.Summary {
			sum = " (summary)"
		}
		fmt.Fprintf(&sb, "%s%s -> {%s}\n", n.Name, sum, strings.Join(names, ", "))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Constraint generation

type constraintKind int

const (
	addrOf     constraintKind = iota // dst ⊇ {src}        (dst = &v)
	copyC                            // dst ⊇ src          (dst = src)
	loadC                            // dst ⊇ *src         (dst = *p)
	storeC                           // *dst ⊇ src         (*p = src)
	storeAddrC                       // *dst ⊇ {src}       (*p = &v / arr)
)

type constraint struct {
	kind     constraintKind
	dst, src NodeID
}

type builder struct {
	res          *Result
	constraints  []constraint
	mode         Mode
	layout       *ctypes.Engine
	nheap        int
	pendingCalls []pendingCall
	callEdges    [][2]string
	funcs        map[string]*cast.FuncDecl
	stmtIdx      int
}

// AllocFuncs are the allocation routines recognized per paper Table 4.
var AllocFuncs = map[string]bool{"malloc": true, "alloca": true, "calloc": true}

// FormatFuncs are the printf-family functions that get automatically
// derived pre/postconditions per calling context (paper §3.4.2.3). C2IP
// dispatches on them, and PPT construction must classify calls the same
// way, so both read this one table.
var FormatFuncs = map[string]bool{
	"printf": true, "fprintf": true, "sprintf": true, "snprintf": true,
}

// Analyze runs the whole-program analysis over a normalized program.
func Analyze(prog *corec.Program, mode Mode) *Result {
	b := &builder{
		res:    &Result{locs: map[string]NodeID{}},
		mode:   mode,
		layout: prog.Layout,
		funcs:  map[string]*cast.FuncDecl{},
	}
	file := prog.File
	for _, fd := range file.Funcs() {
		b.funcs[fd.Name] = fd
	}
	// String-literal buffers are emitted by the normalizer as static
	// globals; mark their nodes with their sizes.
	_ = prog.Strings

	// Create location nodes for globals, string buffers, and functions.
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *cast.VarDecl:
			b.newVarNode(d.Name, d.DeclType)
		case *cast.FuncDecl:
			if _, ok := b.res.locs[d.Name]; !ok {
				n := b.newNode(FuncNode, d.Name)
				n.FuncName = d.Name
				b.res.locs[d.Name] = n.ID
			}
		}
	}
	// Locals and formals.
	for _, fd := range file.Funcs() {
		for _, p := range fd.Params {
			b.newVarNode(fd.Name+"::"+p.Name, p.Type)
		}
		for _, s := range fd.Body.Stmts {
			if ds, ok := s.(*cast.DeclStmt); ok {
				b.newVarNode(fd.Name+"::"+ds.Decl.Name, ds.Decl.DeclType)
			}
		}
		// Return cell, used to wire x = f(...) across calls.
		b.newVarNode(fd.Name+"::"+cast.ReturnValueName+"$", fd.Ret)
	}

	// Generate constraints from every statement of every function.
	for _, fd := range file.Funcs() {
		b.function(file, fd)
	}

	b.solve()
	b.markRecursiveSummaries()
	return b.res
}

func (b *builder) newNode(kind NodeKind, name string) *Node {
	n := &Node{ID: NodeID(len(b.res.Nodes)), Kind: kind, Name: name}
	b.res.Nodes = append(b.res.Nodes, n)
	b.res.pt = append(b.res.pt, map[NodeID]bool{})
	return n
}

func (b *builder) newVarNode(qualified string, t ctypes.Type) *Node {
	if id, ok := b.res.locs[qualified]; ok {
		return b.res.Nodes[id]
	}
	n := b.newNode(VarNode, qualified)
	n.Scalar = ctypes.IsScalar(t)
	n.Size = b.layout.SizeOf(t)
	b.res.locs[qualified] = n.ID
	return n
}

func (b *builder) add(kind constraintKind, dst, src NodeID) {
	b.constraints = append(b.constraints, constraint{kind, dst, src})
	if b.mode == Unification && kind == copyC {
		// Steensgaard treats assignments symmetrically.
		b.constraints = append(b.constraints, constraint{copyC, src, dst})
	}
}

// lvNode resolves the location node of variable name inside fn.
func (b *builder) lvNode(fn, name string) (NodeID, bool) {
	return b.res.LocOf(fn, name)
}

func (b *builder) function(file *cast.File, fd *cast.FuncDecl) {
	fn := fd.Name
	for i, s := range fd.Body.Stmts {
		b.stmtIdx = i
		switch s := s.(type) {
		case *cast.ExprStmt:
			switch x := s.X.(type) {
			case *cast.Assign:
				b.assign(file, fn, x, s.Pos())
			case *cast.Call:
				b.call(file, fn, "", x, s.Pos())
			}
		case *cast.Return:
			if id, ok := s.X.(*cast.Ident); ok {
				ret, _ := b.lvNode(fn, cast.ReturnValueName+"$")
				if src, ok2 := b.lvNode(fn, id.Name); ok2 {
					b.add(copyC, ret, src)
				}
			}
		}
	}
}

// assign generates constraints for a CoreC assignment.
func (b *builder) assign(file *cast.File, fn string, a *cast.Assign, pos interface{ String() string }) {
	// Store: *p = atom
	if u, ok := a.LHS.(*cast.Unary); ok && u.Op == cast.Deref {
		p, ok := u.X.(*cast.Ident)
		if !ok {
			return
		}
		pn, ok := b.lvNode(fn, p.Name)
		if !ok {
			return
		}
		// The stored value: &v stores v's address; otherwise any identifier
		// operand of the (pure, simple) RHS may carry a pointer into the
		// cell.
		if ru, ok := a.RHS.(*cast.Unary); ok && ru.Op == cast.Addr {
			if v, ok := ru.X.(*cast.Ident); ok {
				if src, ok := b.lvNode(fn, v.Name); ok {
					b.constraints = append(b.constraints, constraint{kind: storeAddrC, dst: pn, src: src})
				}
			}
			return
		}
		for _, id := range rhsIdents(a.RHS) {
			if src, ok := b.lvNode(fn, id.Name); ok {
				if b.isRegionValued(file, fn, id) {
					// *p = arr stores arr's address.
					b.constraints = append(b.constraints, constraint{kind: storeAddrC, dst: pn, src: src})
				} else {
					b.add(storeC, pn, src)
				}
			}
		}
		return
	}
	lhs, ok := a.LHS.(*cast.Ident)
	if !ok {
		return
	}
	dst, ok := b.lvNode(fn, lhs.Name)
	if !ok {
		return
	}
	switch r := a.RHS.(type) {
	case *cast.Ident:
		if src, ok := b.lvNode(fn, r.Name); ok {
			// Array- or function-typed identifiers decay: x = arr means x
			// points to arr's region.
			if b.isRegionValued(file, fn, r) {
				b.add(addrOf, dst, src)
			} else {
				b.add(copyC, dst, src)
			}
		}
	case *cast.Unary:
		switch r.Op {
		case cast.Deref:
			if p, ok := r.X.(*cast.Ident); ok {
				if pn, ok := b.lvNode(fn, p.Name); ok {
					b.add(loadC, dst, pn)
				}
			}
		case cast.Addr:
			if v, ok := r.X.(*cast.Ident); ok {
				if vn, ok := b.lvNode(fn, v.Name); ok {
					b.add(addrOf, dst, vn)
				}
			}
		}
	case *cast.Binary:
		// Pointer arithmetic keeps the base: propagate from any pointer
		// operand (field-insensitive).
		for _, op := range []cast.Expr{r.X, r.Y} {
			if id, ok := op.(*cast.Ident); ok {
				if src, ok := b.lvNode(fn, id.Name); ok {
					if b.isRegionValued(file, fn, id) {
						b.add(addrOf, dst, src)
					} else {
						b.add(copyC, dst, src)
					}
				}
			}
		}
	case *cast.Cast:
		if id, ok := r.X.(*cast.Ident); ok {
			if src, ok := b.lvNode(fn, id.Name); ok {
				if b.isRegionValued(file, fn, id) {
					b.add(addrOf, dst, src)
				} else {
					b.add(copyC, dst, src)
				}
			}
		}
	case *cast.Call:
		b.call(file, fn, lhs.Name, r, a.Pos())
	}
}

// isRegionValued reports whether an identifier denotes a region whose
// address is the value (arrays and functions, which decay to pointers).
func (b *builder) isRegionValued(file *cast.File, fn string, id *cast.Ident) bool {
	t := id.Type()
	if t == nil {
		return false
	}
	return ctypes.IsArray(t) || ctypes.IsFunc(t)
}

// call wires parameter and return-value flow. dstName is the variable
// receiving the return value ("" when discarded).
func (b *builder) call(file *cast.File, fn, dstName string, c *cast.Call, pos interface{ String() string }) {
	name := c.FuncName()
	if AllocFuncs[name] {
		// x = malloc(n): a fresh summary heap node. PPT construction may
		// refine summary-ness for non-loop sites in the analyzed procedure.
		h := b.newNode(HeapNode, fmt.Sprintf("alloc#%d@%s", b.nheap, fn))
		b.nheap++
		h.Summary = true
		h.AllocIn = fn
		h.AllocIdx = b.stmtIdx
		if dstName != "" {
			if dst, ok := b.lvNode(fn, dstName); ok {
				b.add(addrOf, dst, h.ID)
			}
		}
		return
	}

	// Candidate callees: the named function, or for calls through pointers
	// every function the pointer may reference (resolved during solving via
	// an indirect-call constraint; here we approximate by wiring through
	// the pointer's points-to set post-hoc — see solveCalls).
	b.pendingCalls = append(b.pendingCalls, pendingCall{fn: fn, dst: dstName, call: c})
	_ = name
}

type pendingCall struct {
	fn   string
	dst  string
	call *cast.Call
}

// rhsIdents collects the identifier operands of a CoreC simple RHS.
func rhsIdents(e cast.Expr) []*cast.Ident {
	switch x := e.(type) {
	case *cast.Ident:
		return []*cast.Ident{x}
	case *cast.Unary:
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
