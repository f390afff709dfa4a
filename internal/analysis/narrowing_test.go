package analysis

import (
	"fmt"
	"testing"

	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/polyhedra"
)

// Narrowing recomputes a node only when one of its predecessors' in-states
// took a new representation after the node was last computed. These tests
// pin, per domain, the invariants that depend on that staleness test firing.

// lin is c + Σ k*v over (coefficient, variable) pairs.
func lin(c int64, terms ...int64) linear.Expr {
	e := linear.ConstExpr(c)
	for i := 0; i+1 < len(terms); i += 2 {
		e = e.Add(linear.VarExpr(int(terms[i+1])).Scale(terms[i]))
	}
	return e
}

// wantState checks that res's in-state at stmt denotes exactly the points
// of want. Both sides are compared as polyhedra, so the check does not
// depend on the domain's representation.
func wantState(t *testing.T, dom Domain, res *Result, stmt int, want linear.System) {
	t.Helper()
	n := res.Prog.NumVars()
	got := res.States[stmt].System()
	if !polyhedra.FromSystem(got, n).Equal(polyhedra.FromSystem(want, n)) {
		t.Errorf("%s: in-state of stmt %d = %s, want %s", dom.Name(), stmt,
			got.String(res.Prog.Space), want.String(res.Prog.Space))
	}
}

// buildLateExit returns a program whose loop exit flows back to a label that
// precedes the loop in statement order:
//
//	 0: goto start
//	 1: J:
//	 2: y := x
//	 3: goto end
//	 4: start:
//	 5: x := 0
//	 6: head:
//	 7: if x >= 10 goto out
//	 8: x := x + 1
//	 9: goto head
//	10: out:
//	11: goto J
//	12: end:
//
// Widening leaves x >= 10 at out. The first narrowing pass bounds the loop
// and narrows out to x == 10, but only after it has already recomputed J
// (statement 1) from the stale x >= 10; the second pass must recompute J,
// and then statement 2, from the changed predecessor.
func buildLateExit() (*ip.Program, int, int) {
	p := ip.New("lateexit")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	p.Emit(&ip.Goto{Target: "start"})
	p.Emit(&ip.Label{Name: "J"})
	p.Emit(&ip.Assign{V: y, E: linear.VarExpr(x)})
	p.Emit(&ip.Goto{Target: "end"})
	p.Emit(&ip.Label{Name: "start"})
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&ip.Label{Name: "head"})
	p.Emit(&ip.IfGoto{C: ip.Single(linear.NewGe(lin(-10, 1, int64(x)))), Target: "out"})
	p.Emit(&ip.Assign{V: x, E: lin(1, 1, int64(x))})
	p.Emit(&ip.Goto{Target: "head"})
	p.Emit(&ip.Label{Name: "out"})
	p.Emit(&ip.Goto{Target: "J"})
	p.Emit(&ip.Label{Name: "end"})
	return p, x, y
}

func TestNarrowingRecomputesAfterLateChange(t *testing.T) {
	for _, dom := range []Domain{PolyDomain{}, ZoneDomain{}} {
		p, x, y := buildLateExit()
		res, err := Analyze(p, Options{Domain: dom})
		if err != nil {
			t.Fatal(err)
		}
		xIs10 := linear.System{linear.NewEq(lin(-10, 1, int64(x)))}
		wantState(t, dom, res, 6, linear.System{ // head: 0 <= x <= 10
			linear.NewGe(lin(0, 1, int64(x))), linear.NewGe(lin(10, -1, int64(x))),
		})
		wantState(t, dom, res, 11, xIs10)        // out, narrowed in pass 1
		wantState(t, dom, res, 1, xIs10)         // J, narrowed only in pass 2
		wantState(t, dom, res, 3, linear.System{ // after y := x
			linear.NewEq(lin(-10, 1, int64(x))), linear.NewEq(lin(-10, 1, int64(y))),
		})

		// One pass leaves J at the widened bound: the refinement above is
		// the second pass's work.
		p, x, _ = buildLateExit()
		res, err = Analyze(p, Options{Domain: dom, NarrowingPasses: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantState(t, dom, res, 1, linear.System{linear.NewGe(lin(-10, 1, int64(x)))})
	}
}

// buildSelfLoop returns a one-block loop that jumps back to its own label:
//
//	0: x := 0
//	1: y := 0
//	2: L:
//	3: y := 2*x
//	4: x := x + 1
//	5: if x <= 9 goto L
//	6: (exit)
//
// The first narrowing pass narrows L and then L's own back-edge
// predecessor (statement 5), so the second pass must revisit L. Only the
// interval domain needs that revisit for precision: it loses y = 2*x - 2,
// so y's bound reaches L one pass after x's.
func buildSelfLoop() (*ip.Program, int, int) {
	p := ip.New("selfloop")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&ip.Assign{V: y, E: linear.ConstExpr(0)})
	p.Emit(&ip.Label{Name: "L"})
	p.Emit(&ip.Assign{V: y, E: lin(0, 2, int64(x))})
	p.Emit(&ip.Assign{V: x, E: lin(1, 1, int64(x))})
	p.Emit(&ip.IfGoto{C: ip.Single(linear.NewGe(lin(9, -1, int64(x)))), Target: "L"})
	return p, x, y
}

func TestNarrowingSelfLoop(t *testing.T) {
	_, x, y := buildSelfLoop()
	xi, yi := int64(x), int64(y)
	xIn09 := []linear.Constraint{linear.NewGe(lin(0, 1, xi)), linear.NewGe(lin(9, -1, xi))}
	yIn018 := []linear.Constraint{linear.NewGe(lin(0, 1, yi)), linear.NewGe(lin(18, -1, yi))}
	xIs10 := linear.NewEq(lin(-10, 1, xi))
	for _, tc := range []struct {
		dom        Domain
		atL, atEnd linear.System
	}{
		// The hull of (0,0), (1,0) and (9,16).
		{PolyDomain{},
			linear.System{linear.NewGe(lin(2, -2, xi, 1, yi)), linear.NewGe(lin(0, 16, xi, -9, yi)), linear.NewGe(lin(0, 1, yi))},
			linear.System{xIs10, linear.NewEq(lin(-18, 1, yi))}},
		// Zones cannot express y := 2*x and havoc y.
		{ZoneDomain{}, xIn09, linear.System{xIs10}},
		{IntervalDomain{}, append(append(linear.System{}, xIn09...), yIn018...), append(linear.System{xIs10}, yIn018...)},
	} {
		p, _, _ := buildSelfLoop()
		res, err := Analyze(p, Options{Domain: tc.dom})
		if err != nil {
			t.Fatal(err)
		}
		wantState(t, tc.dom, res, 2, tc.atL)
		wantState(t, tc.dom, res, 6, tc.atEnd)
	}

	// With one pass, y's bound has not yet come round to L.
	p, _, _ := buildSelfLoop()
	res, err := Analyze(p, Options{Domain: IntervalDomain{}, NarrowingPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, IntervalDomain{}, res, 2, append(linear.System{linear.NewGe(lin(0, 1, yi))}, xIn09...))
}

// TestNarrowingKeylessAlwaysRecomputed runs the late-change program under
// the interval domain, whose states cannot compare representations: every
// narrowed state must count as changed, or neither J nor its successor
// would ever see the exit's refinement.
func TestNarrowingKeylessAlwaysRecomputed(t *testing.T) {
	dom := IntervalDomain{}
	if u := dom.Universe(1); u.SameRepr(u) {
		t.Fatal("the interval domain compares representations; pick a domain that does not for this test")
	}
	p, x, y := buildLateExit()
	res, err := Analyze(p, Options{Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, dom, res, 1, linear.System{linear.NewEq(lin(-10, 1, int64(x)))})
	wantState(t, dom, res, 3, linear.System{
		linear.NewEq(lin(-10, 1, int64(x))), linear.NewEq(lin(-10, 1, int64(y))),
	})
}

// assignDomain wraps a domain so that its states are pointers, giving every
// in-state the engine holds an identity, and logs each Assign: how many ran,
// and how often each ran on one state object.
type assignDomain struct {
	Domain
	log *assignLog
}

type assignLog struct {
	calls int
	runs  map[assignRun]int
}

// assignRun is one assignment transfer applied to one state object.
type assignRun struct {
	in   *assignState
	stmt string
}

func (d assignDomain) Universe(n int) State { return d.log.wrap(d.Domain.Universe(n)) }
func (d assignDomain) Bottom(n int) State   { return d.log.wrap(d.Domain.Bottom(n)) }

type assignState struct {
	State
	log *assignLog
}

func (l *assignLog) wrap(st State) State { return &assignState{st, l} }

func inner(o State) State { return o.(*assignState).State }

func (s *assignState) Join(o State) State  { return s.log.wrap(s.State.Join(inner(o))) }
func (s *assignState) Widen(o State) State { return s.log.wrap(s.State.Widen(inner(o))) }
func (s *assignState) WidenSimple(o State) State {
	return s.log.wrap(s.State.WidenSimple(inner(o)))
}
func (s *assignState) MeetSystem(sys linear.System) State { return s.log.wrap(s.State.MeetSystem(sys)) }
func (s *assignState) Havoc(v int) State                  { return s.log.wrap(s.State.Havoc(v)) }
func (s *assignState) Includes(o State) bool              { return s.State.Includes(inner(o)) }
func (s *assignState) SameRepr(o State) bool              { return s.State.SameRepr(inner(o)) }
func (s *assignState) Assign(v int, e linear.Expr) State {
	s.log.calls++
	s.log.runs[assignRun{s, fmt.Sprintf("v%d := %s", v, e.String(nil))}]++
	return s.log.wrap(s.State.Assign(v, e))
}

// countAssigns analyzes p under dom and returns its log.
func countAssigns(t *testing.T, p *ip.Program, dom Domain) *assignLog {
	t.Helper()
	log := &assignLog{runs: map[assignRun]int{}}
	if _, err := Analyze(p, Options{Domain: assignDomain{dom, log}}); err != nil {
		t.Fatal(err)
	}
	return log
}

// buildStraight returns k assignments v_i := i in a row, with no branch.
func buildStraight(k int) *ip.Program {
	p := ip.New("straight")
	for i := 0; i < k; i++ {
		p.Emit(&ip.Assign{V: p.Space.Var(fmt.Sprintf("v%d", i)), E: linear.ConstExpr(int64(i))})
	}
	return p
}

// TestNarrowingReusesTransfers: narrowing takes each predecessor's transfer
// from the worklist's last computation of it, and computes only those of
// nodes refined since, once each. Only assignments call into the domain in
// these programs (labels, gotos and branches transfer their in-state as it
// is), so Assign calls count transfers, and no assignment may run twice on
// one in-state object.
func TestNarrowingReusesTransfers(t *testing.T) {
	for _, k := range []int{1, 4} {
		// The worklist pops each assignment once: k calls. Polyhedra and
		// zones narrow every in-state to its own representation, so
		// nothing is refined and every transfer narrowing needs is the
		// worklist's. Intervals count every narrowed state as refined:
		// pass 0 recomputes node j >= 2 from the refined in[j-1], which
		// is k-1 calls; node 1's predecessor, the entry, is never refined.
		// In pass 1 no node is stale, since in[j-1] was refined before j
		// was last recomputed. The engine used to make 2k calls in all
		// three domains: pass 0 recomputed every transfer.
		for _, tc := range []struct {
			dom  Domain
			want int
		}{{PolyDomain{}, k}, {ZoneDomain{}, k}, {IntervalDomain{}, 2*k - 1}} {
			log := countAssigns(t, buildStraight(k), tc.dom)
			if log.calls != tc.want {
				t.Errorf("%s, %d assignments in a row: %d Assign calls, want %d", tc.dom.Name(), k, log.calls, tc.want)
			}
			checkNoRerun(t, tc.dom, "straight", log)
		}
	}

	// buildSelfLoop. The worklist pops x := 0 and y := 0 once each, and the
	// loop body once per change of L: y := 2*x three times and x := x + 1
	// twice under polyhedra and intervals (the third pass of the body
	// stops at x := x + 1, whose in-state it does not change), and each
	// twice under zones, which stabilize one widening earlier. That is
	// 7, 6 and 7 calls. Narrowing pass 0 refines L and every node of the
	// body, so it recomputes the transfers of y := 2*x and x := x + 1 on
	// their refined in-states: 2 calls. Pass 1 revisits L, whose
	// back-edge predecessor pass 0 refined, and takes y := 0's transfer
	// from the worklist; L keeps its representation under polyhedra and
	// zones, so nothing more runs: 9 and 8 in all. Intervals refine every narrowed
	// state: pass 0 also recomputes y := 0 from its refined in-state (3
	// calls), and pass 1 refines L again and recomputes the body's two
	// assignments (2 calls): 12. The engine used to make 12, 11 and 14.
	for _, tc := range []struct {
		dom  Domain
		want int
	}{{PolyDomain{}, 9}, {ZoneDomain{}, 8}, {IntervalDomain{}, 12}} {
		p, _, _ := buildSelfLoop()
		log := countAssigns(t, p, tc.dom)
		if log.calls != tc.want {
			t.Errorf("%s, self loop: %d Assign calls, want %d", tc.dom.Name(), log.calls, tc.want)
		}
		checkNoRerun(t, tc.dom, "self loop", log)

		p, _, _ = buildLateExit()
		checkNoRerun(t, tc.dom, "late exit", countAssigns(t, p, tc.dom))
	}
}

// checkNoRerun fails if an assignment ran twice on one in-state object.
func checkNoRerun(t *testing.T, dom Domain, name string, log *assignLog) {
	t.Helper()
	for run, n := range log.runs {
		if n > 1 {
			t.Errorf("%s, %s: %s ran %d times on one in-state", dom.Name(), name, run.stmt, n)
		}
	}
}
