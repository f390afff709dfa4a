package reduce

import (
	"strings"
	"testing"

	"repro/internal/ip"
	"repro/internal/linear"
)

// eq builds the constraint a - b = 0 over variable indices.
func eq(a, b int) linear.Constraint {
	return linear.NewEq(linear.VarExpr(a).Sub(linear.VarExpr(b)))
}

func geZero(v int) linear.Constraint { return linear.NewGe(linear.VarExpr(v)) }

func TestPruneUnreachable(t *testing.T) {
	p := ip.New("prune")
	x, y := p.Space.Var("x"), p.Space.Var("y")
	p.Emit(&ip.Goto{Target: "L"})
	p.Emit(&ip.Assert{C: ip.Single(geZero(x)), Msg: "dead"})
	p.Emit(&ip.Assign{V: y, E: linear.ConstExpr(1)})
	p.Emit(&ip.Label{Name: "L"})
	p.Emit(&ip.Assert{C: ip.Single(geZero(y)), Msg: "live"})

	out, m, err := PruneUnreachable(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Asserts()); got != 1 {
		t.Fatalf("asserts after pruning = %d, want 1 (only the reachable one)", got)
	}
	a := out.Stmts[out.Asserts()[0]].(*ip.Assert)
	if a.Msg != "live" {
		t.Errorf("kept assert %q, want the reachable %q", a.Msg, "live")
	}
	if m[out.Asserts()[0]] != 4 {
		t.Errorf("stmt map: live assert maps to %d, want 4", m[out.Asserts()[0]])
	}
	if out.Size() != 3 { // goto, label, assert
		t.Errorf("pruned size = %d, want 3", out.Size())
	}
}

func TestPrunePreservesAllReachableAsserts(t *testing.T) {
	p := ip.New("branches")
	x := p.Space.Var("x")
	p.Emit(&ip.IfGoto{Target: "A"}) // nondeterministic: both arms reachable
	p.Emit(&ip.Assert{C: ip.Single(geZero(x)), Msg: "fall"})
	p.Emit(&ip.Goto{Target: "End"})
	p.Emit(&ip.Label{Name: "A"})
	p.Emit(&ip.Assert{C: ip.Single(geZero(x)), Msg: "taken"})
	p.Emit(&ip.Label{Name: "End"})

	out, _, err := PruneUnreachable(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Asserts()); got != 2 {
		t.Fatalf("asserts = %d, want both reachable arms", got)
	}
	if out.Size() != p.Size() {
		t.Errorf("fully reachable program shrank: %d -> %d", p.Size(), out.Size())
	}
}

func TestPropagateCollapsesChains(t *testing.T) {
	p := ip.New("chain")
	x, y, z := p.Space.Var("x"), p.Space.Var("y"), p.Space.Var("z")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(3)})
	e := linear.VarExpr(x).Add(linear.ConstExpr(1))
	p.Emit(&ip.Assign{V: y, E: e}) // y := x + 1 -> y := 4
	p.Emit(&ip.Assume{C: ip.Single(eq(z, y))})

	out, err := Propagate(p)
	if err != nil {
		t.Fatal(err)
	}
	ay := out.Stmts[1].(*ip.Assign)
	if !ay.E.IsConst() || ay.E.Const().Int64() != 4 {
		t.Errorf("y := %s, want the folded constant 4", ay.E.String(out.Space))
	}
	as := out.Stmts[2].(*ip.Assume)
	vars := as.C[0][0].E.Vars()
	if len(vars) != 1 || vars[0] != z {
		t.Errorf("assume mentions %v, want only z (y substituted by 4)", vars)
	}
}

func TestPropagateNeverCrossesHavoc(t *testing.T) {
	p := ip.New("havoc")
	x, y := p.Space.Var("x"), p.Space.Var("y")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(3)})
	p.Emit(&ip.Havoc{V: x})
	p.Emit(&ip.Assume{C: ip.Single(eq(y, x))})

	out, err := Propagate(p)
	if err != nil {
		t.Fatal(err)
	}
	as := out.Stmts[2].(*ip.Assume)
	mentionsX := false
	for _, v := range as.C[0][0].E.Vars() {
		if v == x {
			mentionsX = true
		}
	}
	if !mentionsX {
		t.Errorf("assume rewritten to %s: the binding x=3 leaked across the havoc",
			as.C.String(out.Space))
	}
}

func TestPropagateStopsAtLabels(t *testing.T) {
	p := ip.New("label")
	x, y := p.Space.Var("x"), p.Space.Var("y")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(3)})
	p.Emit(&ip.Label{Name: "L"}) // join point: a back edge could reach here
	p.Emit(&ip.Assume{C: ip.Single(eq(y, x))})

	out, err := Propagate(p)
	if err != nil {
		t.Fatal(err)
	}
	as := out.Stmts[2].(*ip.Assume)
	if len(as.C[0][0].E.Vars()) != 2 {
		t.Errorf("assume rewritten to %s: binding crossed a join point",
			as.C.String(out.Space))
	}
}

func TestPropagateLeavesAssertsAlone(t *testing.T) {
	p := ip.New("assert")
	x := p.Space.Var("x")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(3)})
	p.Emit(&ip.Assert{C: ip.Single(geZero(x)), Msg: "m"})

	out, err := Propagate(p)
	if err != nil {
		t.Fatal(err)
	}
	a := out.Stmts[1].(*ip.Assert)
	if len(a.C[0][0].E.Vars()) != 1 {
		t.Errorf("assert condition rewritten to %s; reports must keep the "+
			"original variables", a.C.String(out.Space))
	}
}

func TestEliminateDeadVars(t *testing.T) {
	p := ip.New("dead")
	x, y, z := p.Space.Var("x"), p.Space.Var("y"), p.Space.Var("z")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(5)}) // only feeds y
	p.Emit(&ip.Assign{V: y, E: linear.VarExpr(x)})   // never read
	p.Emit(&ip.Havoc{V: z})
	p.Emit(&ip.Assert{C: ip.Single(geZero(z)), Msg: "m"})

	out, m, err := EliminateDeadVars(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 2 {
		t.Fatalf("size = %d, want 2 (x and y chains are dead)", out.Size())
	}
	if _, ok := out.Stmts[0].(*ip.Havoc); !ok {
		t.Errorf("stmt 0 = %T, want the havoc of the read variable", out.Stmts[0])
	}
	if m[0] != 2 || m[1] != 3 {
		t.Errorf("stmt map = %v, want [2 3]", m)
	}
	_, _, _ = x, y, z
}

// TestSliceTransitiveDeps: the cone must follow dataflow through assumes
// (which couple their variables) and survive nondeterministic branches.
func TestSliceTransitiveDeps(t *testing.T) {
	p := ip.New("slice")
	a, b, c := p.Space.Var("a"), p.Space.Var("b"), p.Space.Var("c")
	d := p.Space.Var("d")
	p.Emit(&ip.Havoc{V: a})
	p.Emit(&ip.Assume{C: ip.Single(eq(b, a))}) // couples b to a
	e := linear.VarExpr(b).Add(linear.ConstExpr(1))
	p.Emit(&ip.Assign{V: c, E: e}) // c := b + 1
	p.Emit(&ip.IfGoto{Target: "L"})
	p.Emit(&ip.Assign{V: d, E: linear.ConstExpr(99)}) // no dataflow to c
	p.Emit(&ip.Label{Name: "L"})
	p.Emit(&ip.Assert{C: ip.Single(geZero(c)), Msg: "target"})

	target := p.Asserts()[0]
	out, sm, err := Slice(p, []int{target})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumVars() != 3 {
		t.Fatalf("sliced vars = %d (%v), want {a,b,c}", out.NumVars(), out.Space.Names())
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, ok := out.Space.Lookup(name); !ok {
			t.Errorf("cone lost %s (transitive dep through the assume)", name)
		}
	}
	if _, ok := out.Space.Lookup("d"); ok {
		t.Error("d kept despite having no dataflow into the check")
	}
	if out.Size() != p.Size()-1 {
		t.Errorf("sliced size = %d, want %d (only d's assignment dropped)",
			out.Size(), p.Size()-1)
	}
	if sm.Var[sm.VarOf[a]] != a || sm.StmtOf[target] != out.Asserts()[0] {
		t.Error("slice maps are not mutually inverse")
	}
	_, _, _ = a, b, c
}

// TestSliceControlClosure: branch guards stay in the cone even without
// dataflow into the target, so the slice's paths (and widening cadence)
// match the full program's.
func TestSliceControlClosure(t *testing.T) {
	p := ip.New("guards")
	g, x := p.Space.Var("g"), p.Space.Var("x")
	p.Emit(&ip.Assign{V: g, E: linear.ConstExpr(5)})
	p.Emit(&ip.IfGoto{C: ip.Single(geZero(g)), Target: "L"})
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(1)})
	p.Emit(&ip.Label{Name: "L"})
	p.Emit(&ip.Assert{C: ip.Single(geZero(x)), Msg: "target"})

	out, _, err := Slice(p, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Space.Lookup("g"); !ok {
		t.Fatal("guard variable dropped from the cone")
	}
	br := out.Stmts[1].(*ip.IfGoto)
	if br.C == nil {
		t.Error("guard became nondeterministic; control closure must keep it")
	}
	if out.Size() != p.Size() {
		t.Errorf("size = %d, want %d (guard definition must be kept)", out.Size(), p.Size())
	}
}

func TestSliceDropsDecoupledAssumes(t *testing.T) {
	p := ip.New("assumes")
	x, noise := p.Space.Var("x"), p.Space.Var("noise")
	p.Emit(&ip.Assume{C: ip.Single(geZero(noise))})
	p.Emit(&ip.Assume{C: ip.Single(geZero(x))})
	p.Emit(&ip.Assert{C: ip.Single(geZero(x)), Msg: "target"})

	out, _, err := Slice(p, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumVars() != 1 || out.Size() != 2 {
		t.Errorf("slice = %d vars x %d stmts, want 1x2 (noise dropped):\n%s",
			out.NumVars(), out.Size(), out.String())
	}
	if !strings.Contains(out.String(), "x >= 0") {
		t.Errorf("coupled assume lost:\n%s", out.String())
	}
}

// TestReduceComposedMap: Reduce's statement map must point back into the
// original program.
func TestReduceComposedMap(t *testing.T) {
	p := ip.New("compose")
	x, y := p.Space.Var("x"), p.Space.Var("y")
	p.Emit(&ip.Goto{Target: "L"})
	p.Emit(&ip.Assign{V: y, E: linear.ConstExpr(0)}) // unreachable
	p.Emit(&ip.Label{Name: "L"})
	p.Emit(&ip.Assign{V: y, E: linear.ConstExpr(7)}) // dead (y never read)
	p.Emit(&ip.Assert{C: ip.Single(geZero(x)), Msg: "m"})

	out, m, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	idx := out.Asserts()
	if len(idx) != 1 {
		t.Fatalf("asserts = %d, want 1", len(idx))
	}
	if m[idx[0]] != 4 {
		t.Errorf("composed map sends the assert to %d, want 4", m[idx[0]])
	}
}
