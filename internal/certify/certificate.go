package certify

import (
	"fmt"

	"repro/internal/clex"
	"repro/internal/ip"
	"repro/internal/linear"
)

// Check identifies one discharged assert in the original integer program.
type Check struct {
	// OrigIndex is the assert's statement index in the original IP.
	OrigIndex int
	Pos       clex.Pos
	Msg       string
	// Tier names the abstract domain that discharged the check
	// ("unreachable" when CFG pruning removed it).
	Tier string
}

// Certificate is a self-contained proof that one discharged check holds:
// the per-program-point invariant systems of the analysis run that closed
// the check, over the carrier program that run analyzed (the tier's sliced
// sub-program under the cascade, the full program otherwise). Verify
// re-establishes that the invariant is inductive and implies the assert
// using only Fourier–Motzkin elimination — no abstract domain is consulted.
type Certificate struct {
	Check Check

	// Prog is the carrier program the invariant lives on.
	Prog *ip.Program
	// AssertIdx is the index of the certified assert in Prog.
	AssertIdx int
	// Inv[i] is the invariant holding at the entry of Prog.Stmts[i];
	// Inv[len(Prog.Stmts)] is the exit invariant. An unsatisfiable system
	// (e.g. -1 >= 0) marks a point the analysis proved unreachable.
	Inv []linear.System

	// OrigStmt maps carrier statement indices to original-program indices
	// (reduce.StmtMap/SliceMap composed); nil means the carrier is the
	// original program. It is reporting metadata: verification runs on the
	// carrier, and the reduction passes that produced it are part of the
	// documented trust argument (DESIGN.md).
	OrigStmt []int
	// VarNames are the carrier's variable names (original names preserved
	// by the slicer), for rendering invariants in reports.
	VarNames []string

	// Unreachable marks a check discharged because CFG pruning removed it;
	// Prog is the original program, Inv is nil, and Verify recomputes graph
	// reachability instead of checking invariant obligations.
	Unreachable bool
}

// InvariantAt returns the certified invariant mapped back to an original
// program point: the strongest Inv[i] whose carrier statement maps to
// origIdx (false when the point was cut from the carrier).
func (cert *Certificate) InvariantAt(origIdx int) (linear.System, bool) {
	if cert.Inv == nil {
		return nil, false
	}
	if cert.OrigStmt == nil {
		if origIdx < 0 || origIdx >= len(cert.Inv) {
			return nil, false
		}
		return cert.Inv[origIdx], true
	}
	for i, o := range cert.OrigStmt {
		if o == origIdx && i < len(cert.Inv) {
			return cert.Inv[i], true
		}
	}
	return nil, false
}

// Verify checks the certificate with the independent Fourier–Motzkin
// engine: initiation (the entry invariant is trivially true), consecution
// (every CFG edge's exact rational post-state is included in the successor
// invariant), and implication (the invariant at the assert excludes every
// integer state violating the condition). A nil error means the check is
// certified.
func (cert *Certificate) Verify() error {
	cr, err := cert.verifyShared(true)
	if err != nil {
		return err
	}
	return cert.verifyAssert(cr)
}

// verifyShared establishes the obligations that do not depend on which
// assert is certified: carrier resolution, certificate shape, initiation,
// and consecution along every CFG edge. Certificates exported by one tier
// run share their carrier program and invariant map by pointer, so
// VerifyAll discharges this part once per shared group — the result is
// identical because the obligations are a pure function of (Prog, Inv).
// The shape check compiles the invariant map to int64 rows on the way
// (compileCarrier), and verifyShared returns them for the per-assert
// implication. With compiled false every obligation takes the big.Int
// reference path instead, and the returned rows are nil.
func (cert *Certificate) verifyShared(compiled bool) (*carrierRows, error) {
	if cert.Prog == nil {
		return nil, fmt.Errorf("certify: certificate has no program")
	}
	if err := cert.Prog.Resolve(); err != nil {
		return nil, fmt.Errorf("certify: carrier program: %w", err)
	}
	p := cert.Prog
	n := p.Size()
	if !cert.Unreachable && len(cert.Inv) != n+1 {
		return nil, fmt.Errorf("certify: invariant map has %d points, program has %d", len(cert.Inv), n+1)
	}
	cr, err := compileCarrier(cert)
	if err != nil || cert.Unreachable {
		// An unreachability claim is per-assert graph reachability.
		return nil, err
	}
	if !compiled {
		cr = nil
	}

	// Initiation: the entry invariant must hold of every initial state,
	// i.e. be entailed by the empty premise.
	if c, bad := cert.initiation(cr); bad {
		return nil, fmt.Errorf("certify: initiation: entry invariant %q is not trivial",
			constraintString(c, cert.VarNames))
	}

	// Consecution: for every statement and every outgoing CFG edge, the
	// exact rational strongest post of the invariant through the statement
	// and the edge condition must entail the successor invariant.
	succ := p.CFG()
	for i := range p.Stmts {
		for _, e := range succ[i] {
			if err := cert.checkEdge(cr, i, e); err != nil {
				return nil, err
			}
		}
	}
	return cr, nil
}

// initiation returns the first entry-invariant constraint that the empty
// premise does not entail.
func (cert *Certificate) initiation(cr *carrierRows) (linear.Constraint, bool) {
	if cr != nil {
		if j, ok := cr.initiation(); ok {
			if j < 0 {
				return linear.Constraint{}, false
			}
			return cert.Inv[0][j], true
		}
	}
	return FirstUnentailed(nil, cert.Inv[0], cert.Prog.NumVars())
}

// verifyAssert establishes the per-assert obligations on top of a
// verified shared part: the certified statement is a verifiable assert
// and the invariant at it excludes every violating integer state.
func (cert *Certificate) verifyAssert(cr *carrierRows) error {
	if cert.Unreachable {
		return cert.verifyUnreachable()
	}
	p := cert.Prog
	n := p.Size()
	if cert.AssertIdx < 0 || cert.AssertIdx >= n {
		return fmt.Errorf("certify: assert index %d out of range", cert.AssertIdx)
	}
	a, ok := p.Stmts[cert.AssertIdx].(*ip.Assert)
	if !ok {
		return fmt.Errorf("certify: statement %d is not an assert", cert.AssertIdx)
	}
	if a.Unverifiable {
		return fmt.Errorf("certify: unverifiable assert cannot be certified")
	}

	// Implication: no integer point of the invariant at the assert violates
	// the condition. The integer negation (ip.DNF.Negate) is exact over
	// integer states; rational infeasibility of each negated disjunct is
	// therefore sound.
	if !cert.excludes(cr, a.C.Negate()) {
		return fmt.Errorf("certify: implication: invariant at %d does not exclude violation of %q",
			cert.AssertIdx, a.Msg)
	}
	return nil
}

// excludes reports whether the invariant at the assert is infeasible
// together with each disjunct of the negated condition.
func (cert *Certificate) excludes(cr *carrierRows, negated ip.DNF) bool {
	if cr != nil {
		if excluded, ok := cr.excludes(cert.AssertIdx, negated); ok {
			return excluded
		}
	}
	inv := cert.Inv[cert.AssertIdx]
	for _, nd := range negated {
		if !Unsat(append(inv[:len(inv):len(inv)], nd...), cert.Prog.NumVars()) {
			return false
		}
	}
	return true
}

// verifyUnreachable re-derives, by plain graph search, that the assert is
// not CFG-reachable from the entry — the same (over-approximate) notion the
// pruning pass uses, recomputed independently.
func (cert *Certificate) verifyUnreachable() error {
	p := cert.Prog
	n := p.Size()
	if cert.AssertIdx < 0 || cert.AssertIdx >= n {
		return fmt.Errorf("certify: assert index %d out of range", cert.AssertIdx)
	}
	if _, ok := p.Stmts[cert.AssertIdx].(*ip.Assert); !ok {
		return fmt.Errorf("certify: statement %d is not an assert", cert.AssertIdx)
	}
	succ := p.CFG()
	reach := make([]bool, n+1)
	stack := []int{0}
	if n > 0 {
		reach[0] = true
	}
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
	if reach[cert.AssertIdx] {
		return fmt.Errorf("certify: assert %d is CFG-reachable, unreachability claim refuted", cert.AssertIdx)
	}
	return nil
}

// checkEdge discharges the consecution obligation of one CFG edge. The
// statement transfer and the edge condition are decomposed into disjuncts
// (matching the engine's per-disjunct join); each (transfer-disjunct,
// edge-disjunct) pair yields one premise whose exact rational post must
// entail the successor invariant. Since every sound abstract transfer
// over-approximates this exact post, a correct fixpoint always passes.
// The compiled rows decide the edge when they can; otherwise (cr == nil, or
// the int64 engine cannot) the reference path below does.
func (cert *Certificate) checkEdge(cr *carrierRows, i int, e ip.Edge) error {
	p := cert.Prog
	nv := p.NumVars()
	pre := cert.Inv[i]
	post := cert.Inv[e.To]
	primed, extra, transferDisjuncts := transfer(p.Stmts[i], nv)
	if cr != nil {
		if j, ok := cr.edge(primed, extra, transferDisjuncts, i, e); ok {
			if j < 0 {
				return nil
			}
			target := post[j : j+1]
			if primed >= 0 {
				target = renameVar(target, primed, nv)
			}
			return consecutionError(i, e, target[0], cert.VarNames)
		}
	}

	// Edge conditions only occur on IfGoto edges, whose transfer is the
	// identity, so they always constrain the unprimed state.
	edgeDisjuncts := normDNF(e.Cond)

	dim := nv
	target := post
	if primed >= 0 {
		dim = nv + 1
		target = renameVar(post, primed, nv)
	}

	for _, td := range transferDisjuncts {
		for _, ed := range edgeDisjuncts {
			premise := make(linear.System, 0, len(pre)+len(extra)+len(td)+len(ed))
			premise = append(premise, pre...)
			premise = append(premise, extra...)
			premise = append(premise, td...)
			premise = append(premise, ed...)
			if c, bad := FirstUnentailed(premise, target, dim); bad {
				return consecutionError(i, e, c, cert.VarNames)
			}
		}
	}
	return nil
}

// transfer decomposes a statement for its consecution obligations. The
// variable an assignment or havoc overwrites (primed, -1 otherwise) is
// modeled by a primed copy at index nv, over which the successor invariant
// is rewritten; an assignment relates the two by the equation extra. The
// transfer disjuncts each join the premise.
func transfer(s ip.Stmt, nv int) (primed int, extra linear.System, disjuncts ip.DNF) {
	primed, disjuncts = -1, ip.DNF{nil} // one trivially-true disjunct
	switch s := s.(type) {
	case *ip.Assign:
		primed = s.V
		// x' = e  (over the unprimed pre-state).
		extra = linear.System{linear.NewEq(s.E.Sub(linear.VarExpr(nv)))} // e - x' == 0
	case *ip.Havoc:
		primed = s.V
	case *ip.Assume:
		disjuncts = normDNF(s.C)
	case *ip.Assert:
		// Downstream of an assert the instrumented semantics guarantees the
		// condition (execution halts at the first error), so the condition
		// joins the premise. Unverifiable asserts contribute nothing.
		if !s.Unverifiable {
			disjuncts = normDNF(s.C)
		}
	}
	return primed, extra, disjuncts
}

func consecutionError(i int, e ip.Edge, c linear.Constraint, names []string) error {
	return fmt.Errorf("certify: consecution: edge %d->%d does not preserve %q",
		i, e.To, constraintString(c, names))
}

// normDNF normalizes a condition for obligation enumeration: nil (true)
// becomes a single empty disjunct; false stays empty (no obligation — the
// edge is infeasible).
func normDNF(d ip.DNF) ip.DNF {
	if d.IsTrue() {
		return ip.DNF{nil}
	}
	if d.IsFalse() {
		return ip.DNF{}
	}
	return d
}

// renameVar rewrites every occurrence of variable v as variable w.
func renameVar(sys linear.System, v, w int) linear.System {
	out := make(linear.System, len(sys))
	for i, c := range sys {
		out[i] = linear.Constraint{E: c.E.Subst(v, linear.VarExpr(w)), Rel: c.Rel}
	}
	return out
}

func constraintString(c linear.Constraint, names []string) string {
	sp := linear.NewSpace()
	for _, n := range names {
		sp.Var(n)
	}
	// The primed next-state variable, if present, prints as <name>'.
	for sp.Dim() <= maxVar(linear.System{c}) {
		sp.Var(fmt.Sprintf("v%d'", sp.Dim()))
	}
	return c.String(sp)
}
