package reduce

import (
	"fmt"

	"repro/internal/ip"
	"repro/internal/linear"
)

// SliceMap relates a sliced program to the program it was cut from.
type SliceMap struct {
	// Stmt maps sliced statement indices to source indices.
	Stmt StmtMap
	// StmtOf maps source statement indices to sliced indices (kept
	// statements only).
	StmtOf map[int]int
	// Var maps sliced variable indices to source indices.
	Var []int
	// VarOf maps source variable indices to sliced indices (kept variables
	// only).
	VarOf map[int]int
}

// Slice computes the backward cone of influence of the target assert
// statements and returns the sub-program restricted to it, with the
// variable space compacted to the cone's variables (names preserved).
//
// The cone is the least fixpoint of:
//   - the variables of every target assert condition are relevant;
//   - the variables of every branch condition are relevant (control
//     closure: guards decide path feasibility and the widening cadence at
//     loop heads, so dropping one would change the fixpoint the remaining
//     variables reach — sound, but no longer bit-identical to a run over
//     the full program);
//   - an assignment to a relevant variable makes its right-hand side's
//     variables relevant;
//   - an assume or assert condition mentioning a relevant variable makes
//     all of its variables relevant (conditions couple the variables they
//     mention, and path feasibility flows through them).
//
// Statement selection: control structure (labels, gotos, branches with
// their guards) is kept in full, so every path of the original maps to a
// path of the slice. Assumes outside the cone are dropped — an
// over-approximation of the reachable states, so a property proven on the
// slice holds on the original. Assignments and havocs of irrelevant
// variables are dropped; they cannot affect the cone because any dataflow
// back into it would have pulled their targets in. Non-target asserts
// inside the cone are kept (the engine refines the state at an assert,
// and the slice preserves that transfer) but should not be re-checked:
// pass the sliced target indices as Options.CheckOnly.
func Slice(p *ip.Program, targets []int) (*ip.Program, *SliceMap, error) {
	if err := p.Resolve(); err != nil {
		return nil, nil, err
	}
	isTarget := map[int]bool{}
	rel := map[int]bool{}
	for _, idx := range targets {
		a, ok := p.Stmts[idx].(*ip.Assert)
		if !ok {
			return nil, nil, fmt.Errorf("reduce: slice target %d is not an assert", idx)
		}
		isTarget[idx] = true
		markDNFVars(a.C, rel)
	}
	// Control closure: branch guards are always part of the cone.
	for _, s := range p.Stmts {
		if g, ok := s.(*ip.IfGoto); ok {
			markDNFVars(g.C, rel)
			markDNFVars(g.FalseC, rel)
		}
	}

	// Cone closure.
	for changed := true; changed; {
		changed = false
		grow := func(n int) {
			if n > 0 {
				changed = true
			}
		}
		for i, s := range p.Stmts {
			switch s := s.(type) {
			case *ip.Assign:
				if rel[s.V] {
					grow(addExprVars(s.E, rel))
				}
			case *ip.Assume:
				if mentionsDNF(s.C, rel) {
					grow(addDNFVars(s.C, rel))
				}
			case *ip.Assert:
				if isTarget[i] || mentionsDNF(s.C, rel) {
					grow(addDNFVars(s.C, rel))
				}
			case *ip.IfGoto:
				if mentionsDNF(s.C, rel) || mentionsDNF(s.FalseC, rel) {
					grow(addDNFVars(s.C, rel))
					grow(addDNFVars(s.FalseC, rel))
				}
			}
		}
	}

	// Compact the variable space: keep cone variables in index order.
	sm := &SliceMap{StmtOf: map[int]int{}, VarOf: map[int]int{}}
	space := linear.NewSpace()
	for v := 0; v < p.NumVars(); v++ {
		if rel[v] {
			sm.VarOf[v] = space.Var(p.Space.Name(v))
			sm.Var = append(sm.Var, v)
		}
	}

	out := &ip.Program{Name: p.Name, Space: space}
	keep := func(i int, s ip.Stmt) {
		if i < p.PreludeEnd {
			out.PreludeEnd++
		}
		sm.StmtOf[i] = len(out.Stmts)
		sm.Stmt = append(sm.Stmt, i)
		out.Emit(s)
	}
	for i, s := range p.Stmts {
		switch s := s.(type) {
		case *ip.Label, *ip.Goto:
			keep(i, s)
		case *ip.IfGoto:
			if s.C != nil && (mentionsDNF(s.C, rel) || mentionsDNF(s.FalseC, rel)) {
				keep(i, &ip.IfGoto{
					C:      remapDNF(s.C, sm.VarOf),
					FalseC: remapDNF(s.FalseC, sm.VarOf),
					Target: s.Target,
				})
			} else {
				// Outside the cone (or already nondeterministic): keep the
				// edge, drop the guard.
				keep(i, &ip.IfGoto{Target: s.Target})
			}
		case *ip.Assign:
			if rel[s.V] {
				keep(i, &ip.Assign{V: sm.VarOf[s.V], E: remapExpr(s.E, sm.VarOf)})
			}
		case *ip.Havoc:
			if rel[s.V] {
				keep(i, &ip.Havoc{V: sm.VarOf[s.V]})
			}
		case *ip.Assume:
			if mentionsDNF(s.C, rel) || s.C.IsFalse() {
				keep(i, &ip.Assume{C: remapDNF(s.C, sm.VarOf)})
			}
		case *ip.Assert:
			if isTarget[i] || mentionsDNF(s.C, rel) {
				keep(i, &ip.Assert{
					C:            remapDNF(s.C, sm.VarOf),
					Msg:          s.Msg,
					Pos:          s.Pos,
					Unverifiable: s.Unverifiable,
				})
			}
		default:
			keep(i, s)
		}
	}
	if err := out.Resolve(); err != nil {
		return nil, nil, fmt.Errorf("reduce: slice broke labels: %w", err)
	}
	return out, sm, nil
}

// ---------------------------------------------------------------------------
// Variable-set and remapping helpers

func markDNFVars(d ip.DNF, set map[int]bool) {
	for _, conj := range d {
		for _, c := range conj {
			for _, v := range c.E.Vars() {
				set[v] = true
			}
		}
	}
}

// addExprVars adds e's variables to set, returning how many were new.
func addExprVars(e linear.Expr, set map[int]bool) int {
	n := 0
	for _, v := range e.Vars() {
		if !set[v] {
			set[v] = true
			n++
		}
	}
	return n
}

func addDNFVars(d ip.DNF, set map[int]bool) int {
	n := 0
	for _, conj := range d {
		for _, c := range conj {
			n += addExprVars(c.E, set)
		}
	}
	return n
}

// mentionsDNF reports whether d mentions any variable of set.
func mentionsDNF(d ip.DNF, set map[int]bool) bool {
	for _, conj := range d {
		for _, c := range conj {
			for _, v := range c.E.Vars() {
				if set[v] {
					return true
				}
			}
		}
	}
	return false
}

// remapExpr rewrites e's variables through varOf; every variable of e must
// be mapped.
func remapExpr(e linear.Expr, varOf map[int]int) linear.Expr {
	vs := e.Vars()
	terms := make([]linear.Term, len(vs))
	for i, v := range vs {
		terms[i] = linear.Term{V: varOf[v], K: e.Coef(v)}
	}
	return linear.NewExpr(e.Const(), terms...)
}

// remapDNF rewrites a condition through varOf (nil stays nil).
func remapDNF(d ip.DNF, varOf map[int]int) ip.DNF {
	if d == nil {
		return nil
	}
	out := make(ip.DNF, len(d))
	for i, conj := range d {
		out[i] = make([]linear.Constraint, len(conj))
		for j, c := range conj {
			out[i][j] = linear.Constraint{E: remapExpr(c.E, varOf), Rel: c.Rel}
		}
	}
	return out
}
