// Package ip defines the nondeterministic integer programs produced by the
// C2IP transformation (paper §3.4): straight-line code over integer
// constraint variables with assignments (possibly to "unknown"), assume and
// assert statements whose conditions are in disjunctive normal form, and
// conditional/unconditional gotos (including the nondeterministic
// "if (unknown)").
package ip

import (
	"fmt"
	"strings"

	"repro/internal/clex"
	"repro/internal/linear"
)

// DNF is a disjunction of conjunctions of linear constraints. A nil or
// one-empty-conjunct DNF is true; an empty (zero-disjunct) non-nil DNF is
// false.
type DNF [][]linear.Constraint

// True returns the trivially true condition.
func True() DNF { return DNF{nil} }

// False returns the unsatisfiable condition.
func False() DNF { return DNF{} }

// Single wraps one constraint as a DNF.
func Single(c linear.Constraint) DNF { return DNF{{c}} }

// Conj wraps one conjunction as a DNF.
func Conj(cs ...linear.Constraint) DNF { return DNF{cs} }

// IsTrue reports whether d is syntactically true.
func (d DNF) IsTrue() bool {
	if d == nil {
		return true
	}
	for _, conj := range d {
		if len(conj) == 0 {
			return true
		}
		allTaut := true
		for _, c := range conj {
			if !c.IsTautology() {
				allTaut = false
				break
			}
		}
		if allTaut {
			return true
		}
	}
	return false
}

// IsFalse reports whether d is syntactically false.
func (d DNF) IsFalse() bool { return d != nil && len(d) == 0 }

// And returns the conjunction of two DNFs (distributing).
func (d DNF) And(e DNF) DNF {
	if d.IsTrue() {
		return e
	}
	if e.IsTrue() {
		return d
	}
	if d.IsFalse() || e.IsFalse() {
		return False()
	}
	var out DNF
	for _, c1 := range d {
		for _, c2 := range e {
			conj := make([]linear.Constraint, 0, len(c1)+len(c2))
			conj = append(conj, c1...)
			conj = append(conj, c2...)
			out = append(out, conj)
		}
	}
	return out
}

// Or returns the disjunction of two DNFs.
func (d DNF) Or(e DNF) DNF {
	if d.IsTrue() || e.IsTrue() {
		return True()
	}
	if d == nil {
		return e
	}
	if e == nil {
		return d
	}
	out := make(DNF, 0, len(d)+len(e))
	out = append(out, d...)
	out = append(out, e...)
	return out
}

// Negate returns the integer negation of d in DNF (exact over integers:
// strict inequalities become >= with the constant shifted).
func (d DNF) Negate() DNF {
	if d.IsTrue() {
		return False()
	}
	if d.IsFalse() {
		return True()
	}
	// not(OR_i AND_j c_ij) = AND_i OR_j not(c_ij); distribute to DNF.
	result := True()
	for _, conj := range d {
		var disj DNF = False()
		for _, c := range conj {
			for _, nc := range c.Negate() {
				disj = disj.Or(Single(nc))
			}
		}
		result = result.And(disj)
	}
	return result
}

// String renders d with variable names from sp.
func (d DNF) String(sp *linear.Space) string {
	if d.IsTrue() {
		return "true"
	}
	if d.IsFalse() {
		return "false"
	}
	var parts []string
	for _, conj := range d {
		var cs []string
		for _, c := range conj {
			cs = append(cs, c.String(sp))
		}
		s := strings.Join(cs, " && ")
		if len(d) > 1 && len(conj) > 1 {
			s = "(" + s + ")"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " || ")
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is an IP statement.
type Stmt interface {
	ipStmt()
	String(sp *linear.Space) string
}

// Assign is v := E.
type Assign struct {
	V int
	E linear.Expr
}

// Havoc is v := unknown.
type Havoc struct {
	V int
}

// Assume blocks execution unless C holds.
type Assume struct {
	C DNF
}

// Assert reports an error when C may not hold.
type Assert struct {
	C DNF
	// Msg describes the checked property ("dereference within bounds",
	// "precondition of g", ...).
	Msg string
	// Pos is the source location blamed in reports.
	Pos clex.Pos
	// Unverifiable marks assertions whose contract expression could not be
	// translated to linear arithmetic; they always fail conservatively.
	Unverifiable bool
}

// IfGoto branches to Target when C holds; a nil C is the nondeterministic
// "if (unknown)". FalseC, when non-nil, is the condition assumed on the
// fall-through edge (defaults to the negation of C); C2IP sets it when
// interpreting program conditions enriches the two edges asymmetrically
// (paper §3.4.2.2).
type IfGoto struct {
	C      DNF // nil = nondeterministic
	FalseC DNF // nil = Negate(C)
	Target string
}

// FallthroughCond returns the condition assumed when the branch is not
// taken.
func (s *IfGoto) FallthroughCond() DNF {
	if s.C == nil {
		return True()
	}
	if s.FalseC != nil {
		return s.FalseC
	}
	return s.C.Negate()
}

// Goto jumps unconditionally.
type Goto struct {
	Target string
}

// Label marks a jump target.
type Label struct {
	Name string
}

func (*Assign) ipStmt() {}
func (*Havoc) ipStmt()  {}
func (*Assume) ipStmt() {}
func (*Assert) ipStmt() {}
func (*IfGoto) ipStmt() {}
func (*Goto) ipStmt()   {}
func (*Label) ipStmt()  {}

// String implementations.
func (s *Assign) String(sp *linear.Space) string {
	return fmt.Sprintf("%s := %s;", sp.Name(s.V), s.E.String(sp))
}
func (s *Havoc) String(sp *linear.Space) string {
	return fmt.Sprintf("%s := unknown;", sp.Name(s.V))
}
func (s *Assume) String(sp *linear.Space) string {
	return fmt.Sprintf("assume(%s);", s.C.String(sp))
}
func (s *Assert) String(sp *linear.Space) string {
	return fmt.Sprintf("assert(%s); // %s", s.C.String(sp), s.Msg)
}
func (s *IfGoto) String(sp *linear.Space) string {
	if s.C == nil {
		return fmt.Sprintf("if (unknown) goto %s;", s.Target)
	}
	return fmt.Sprintf("if (%s) goto %s;", s.C.String(sp), s.Target)
}
func (s *Goto) String(sp *linear.Space) string  { return fmt.Sprintf("goto %s;", s.Target) }
func (s *Label) String(sp *linear.Space) string { return s.Name + ":" }

// ---------------------------------------------------------------------------
// Programs

// Program is a complete integer program for one procedure.
type Program struct {
	Name  string
	Space *linear.Space
	Stmts []Stmt
	// PreludeEnd is the index of the first statement after C2IP's entry
	// prelude (region-size and instrumentation assumptions). Contract
	// derivation reports conditions relative to this point.
	PreludeEnd int
	// labels maps label names to statement indices (built by Resolve).
	labels map[string]int
}

// New returns an empty program.
func New(name string) *Program {
	return &Program{Name: name, Space: linear.NewSpace()}
}

// Emit appends a statement.
func (p *Program) Emit(s Stmt) { p.Stmts = append(p.Stmts, s) }

// Resolve indexes labels; it must be called before TargetOf.
func (p *Program) Resolve() error {
	p.labels = map[string]int{}
	for i, s := range p.Stmts {
		if l, ok := s.(*Label); ok {
			if _, dup := p.labels[l.Name]; dup {
				return fmt.Errorf("ip: duplicate label %q", l.Name)
			}
			p.labels[l.Name] = i
		}
	}
	for _, s := range p.Stmts {
		switch s := s.(type) {
		case *Goto:
			if _, ok := p.labels[s.Target]; !ok {
				return fmt.Errorf("ip: undefined label %q", s.Target)
			}
		case *IfGoto:
			if _, ok := p.labels[s.Target]; !ok {
				return fmt.Errorf("ip: undefined label %q", s.Target)
			}
		}
	}
	return nil
}

// TargetOf returns the statement index of a label.
func (p *Program) TargetOf(label string) int { return p.labels[label] }

// Edge is a control-flow edge to statement To, guarded by the condition
// assumed along it (nil = true).
type Edge struct {
	To   int
	Cond DNF
}

// CFG returns the successor edges of every statement; node len(Stmts) is
// the exit. Resolve must have been called.
func (p *Program) CFG() [][]Edge {
	n := len(p.Stmts)
	succ := make([][]Edge, n+1)
	for i, s := range p.Stmts {
		next := i + 1
		switch s := s.(type) {
		case *Goto:
			succ[i] = []Edge{{To: p.TargetOf(s.Target)}}
		case *IfGoto:
			succ[i] = []Edge{
				{To: p.TargetOf(s.Target), Cond: s.C},
				{To: next, Cond: s.FallthroughCond()},
			}
		default:
			succ[i] = []Edge{{To: next}}
		}
	}
	return succ
}

// NumVars returns the number of constraint variables.
func (p *Program) NumVars() int { return p.Space.Dim() }

// Size returns the number of statements (the paper's "IP size").
func (p *Program) Size() int { return len(p.Stmts) }

// Asserts returns the indices of all assert statements.
func (p *Program) Asserts() []int {
	var out []int
	for i, s := range p.Stmts {
		if _, ok := s.(*Assert); ok {
			out = append(out, i)
		}
	}
	return out
}

// String renders the whole program.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "// integer program for %s (%d vars, %d stmts)\n",
		p.Name, p.NumVars(), p.Size())
	for _, s := range p.Stmts {
		if _, isLabel := s.(*Label); !isLabel {
			sb.WriteString("    ")
		}
		sb.WriteString(s.String(p.Space))
		sb.WriteString("\n")
	}
	return sb.String()
}
