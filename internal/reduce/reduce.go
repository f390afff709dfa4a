// Package reduce implements sound IP-level static-analysis passes over the
// integer programs of C2IP: unreachable-node pruning of the IP CFG,
// block-local constant/copy propagation on x := linexpr chains, dead
// constraint-variable elimination, and per-assertion backward slicing
// (cone of influence over constraint variables).
//
// The passes feed the tiered check-discharge cascade (internal/analysis):
// every pass is sound for discharging — a property proven on the reduced
// program holds on the original — because pruning only removes statements
// no execution reaches, propagation only substitutes equalities that hold
// at the substitution point, dead-variable elimination only removes
// updates no check observes, and slicing only removes statements with no
// dataflow into the checked conditions (dropping an assume or making a
// branch nondeterministic over-approximates the reachable states).
package reduce

import (
	"fmt"

	"repro/internal/ip"
	"repro/internal/linear"
)

// StmtMap maps statement indices of a reduced program back to the program
// it was derived from (new index -> old index).
type StmtMap []int

// Compose chains m (new -> mid) with outer (mid -> old).
func (m StmtMap) Compose(outer StmtMap) StmtMap {
	out := make(StmtMap, len(m))
	for i, mid := range m {
		out[i] = outer[mid]
	}
	return out
}

// ---------------------------------------------------------------------------
// Unreachable-node pruning

// PruneUnreachable removes every statement the IP CFG cannot reach from the
// entry. All reachable statements — in particular all reachable asserts —
// are preserved verbatim, so the pass is exact: the pruned program has the
// same executions as the original.
func PruneUnreachable(p *ip.Program) (*ip.Program, StmtMap, error) {
	if err := p.Resolve(); err != nil {
		return nil, nil, err
	}
	n := len(p.Stmts)
	succ := p.CFG()
	reach := make([]bool, n+1)
	stack := []int{0}
	if n == 0 {
		stack = nil
	}
	reach[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if i >= n {
			continue
		}
		for _, e := range succ[i] {
			if !reach[e.To] {
				reach[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}

	out := &ip.Program{Name: p.Name, Space: p.Space}
	var m StmtMap
	for i, s := range p.Stmts {
		if !reach[i] {
			continue
		}
		if i < p.PreludeEnd {
			out.PreludeEnd++
		}
		out.Emit(s)
		m = append(m, i)
	}
	if err := out.Resolve(); err != nil {
		return nil, nil, fmt.Errorf("reduce: prune broke labels: %w", err)
	}
	return out, m, nil
}

// ---------------------------------------------------------------------------
// Constant / copy propagation

// Propagate performs block-local constant and copy propagation on
// x := linexpr chains: within each basic block, the right-hand sides of
// assignments and the conditions of assumes and branches are rewritten
// under the equalities established by earlier assignments of the block.
// Bindings are invalidated by any assignment or havoc of a variable they
// mention — propagation never crosses a havoc — and discarded at labels
// (join points). Assert conditions are deliberately left untouched so
// reports (messages and counter-example variable sets) are identical to
// the unreduced program's.
//
// The statement count and indices are unchanged; only expressions are
// rewritten.
func Propagate(p *ip.Program) (*ip.Program, error) {
	if err := p.Resolve(); err != nil {
		return nil, err
	}
	out := &ip.Program{Name: p.Name, Space: p.Space, PreludeEnd: p.PreludeEnd}
	env := map[int]linear.Expr{}
	kill := func(v int) {
		delete(env, v)
		for u, e := range env {
			for _, w := range e.Vars() {
				if w == v {
					delete(env, u)
					break
				}
			}
		}
	}
	subst := func(e linear.Expr) linear.Expr {
		r := e
		for _, v := range e.Vars() {
			if b, ok := env[v]; ok {
				r = r.Subst(v, b)
			}
		}
		return r
	}
	substDNF := func(d ip.DNF) ip.DNF {
		if d.IsTrue() || d.IsFalse() {
			return d
		}
		r := make(ip.DNF, len(d))
		for i, conj := range d {
			r[i] = make([]linear.Constraint, len(conj))
			for j, c := range conj {
				r[i][j] = linear.Constraint{E: subst(c.E), Rel: c.Rel}
			}
		}
		return r
	}

	for _, s := range p.Stmts {
		switch s := s.(type) {
		case *ip.Assign:
			e := subst(s.E)
			kill(s.V)
			out.Emit(&ip.Assign{V: s.V, E: e})
			// Bind only when the new value does not depend on the old one
			// (x := x+1 establishes no reusable equality).
			selfRef := false
			for _, v := range e.Vars() {
				if v == s.V {
					selfRef = true
					break
				}
			}
			if !selfRef {
				env[s.V] = e
			}
		case *ip.Havoc:
			kill(s.V)
			out.Emit(s)
		case *ip.Assume:
			out.Emit(&ip.Assume{C: substDNF(s.C)})
		case *ip.Assert:
			out.Emit(s) // never rewritten: report fidelity
		case *ip.IfGoto:
			ns := &ip.IfGoto{Target: s.Target}
			if s.C != nil {
				ns.C = substDNF(s.C)
			}
			if s.FalseC != nil {
				ns.FalseC = substDNF(s.FalseC)
			}
			out.Emit(ns)
		case *ip.Goto:
			out.Emit(s)
			// The next statement is only reachable through a label; its
			// block starts fresh anyway, but clear defensively.
			env = map[int]linear.Expr{}
		case *ip.Label:
			env = map[int]linear.Expr{}
			out.Emit(s)
		default:
			out.Emit(s)
		}
	}
	if err := out.Resolve(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Dead constraint-variable elimination

// EliminateDeadVars removes assignments and havocs to constraint variables
// that no condition, assert, or surviving right-hand side ever reads,
// iterating to a fixpoint (removing a dead assignment may kill the last
// read of another variable). The observable behavior — every condition
// evaluated, every assert checked — is unchanged.
func EliminateDeadVars(p *ip.Program) (*ip.Program, StmtMap, error) {
	if err := p.Resolve(); err != nil {
		return nil, nil, err
	}
	dead := make([]bool, len(p.Stmts))
	for {
		read := map[int]bool{}
		markExpr := func(e linear.Expr) {
			for _, v := range e.Vars() {
				read[v] = true
			}
		}
		markDNF := func(d ip.DNF) {
			for _, conj := range d {
				for _, c := range conj {
					markExpr(c.E)
				}
			}
		}
		for i, s := range p.Stmts {
			if dead[i] {
				continue
			}
			switch s := s.(type) {
			case *ip.Assign:
				markExpr(s.E)
			case *ip.Assume:
				markDNF(s.C)
			case *ip.Assert:
				markDNF(s.C)
			case *ip.IfGoto:
				markDNF(s.C)
				markDNF(s.FalseC)
			}
		}
		changed := false
		for i, s := range p.Stmts {
			if dead[i] {
				continue
			}
			switch s := s.(type) {
			case *ip.Assign:
				if !read[s.V] {
					dead[i] = true
					changed = true
				}
			case *ip.Havoc:
				if !read[s.V] {
					dead[i] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	out := &ip.Program{Name: p.Name, Space: p.Space}
	var m StmtMap
	for i, s := range p.Stmts {
		if dead[i] {
			continue
		}
		if i < p.PreludeEnd {
			out.PreludeEnd++
		}
		out.Emit(s)
		m = append(m, i)
	}
	if err := out.Resolve(); err != nil {
		return nil, nil, err
	}
	return out, m, nil
}

// Reduce applies the exactness-preserving passes in order: unreachable-node
// pruning, constant/copy propagation, dead-variable elimination.
func Reduce(p *ip.Program) (*ip.Program, StmtMap, error) {
	pruned, pm, err := PruneUnreachable(p)
	if err != nil {
		return nil, nil, err
	}
	prop, err := Propagate(pruned)
	if err != nil {
		return nil, nil, err
	}
	out, dm, err := EliminateDeadVars(prop)
	if err != nil {
		return nil, nil, err
	}
	return out, dm.Compose(pm), nil
}
