package ip

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/linear"
)

// geC builds sum(terms[i]*x_i) + k >= 0 from positional coefficients.
func geC(k int64, terms ...int64) linear.Constraint {
	e := linear.ConstExpr(k)
	for v, c := range terms {
		if c != 0 {
			e = e.Add(linear.VarExpr(v).Scale(c))
		}
	}
	return linear.NewGe(e)
}

func eqC(k int64, terms ...int64) linear.Constraint {
	c := geC(k, terms...)
	return linear.NewEq(c.E)
}

func TestExecDirectedFindsWitness(t *testing.T) {
	// x := unknown; assume(x >= 0); assert(x >= 1): x = 0 violates.
	p := New("w")
	x := p.Space.Var("x")
	p.Emit(&Havoc{V: x})
	p.Emit(&Assume{C: Single(geC(0, 1))})
	p.Emit(&Assert{C: Single(geC(-1, 1)), Msg: "x >= 1"})
	res := p.ExecDirected(2, nil, DirectedOptions{})
	if !res.Found {
		t.Fatalf("witness not found: %+v", res)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(res.Trace, want) {
		t.Errorf("trace = %v, want %v", res.Trace, want)
	}
}

func TestExecDirectedNoWitness(t *testing.T) {
	// assume(x >= 1); assert(x >= 0) always holds: exhaustive search over
	// the finite candidate list finds nothing and is not truncated.
	p := New("safe")
	p.Space.Var("x")
	p.Emit(&Assume{C: Single(geC(-1, 1))})
	p.Emit(&Assert{C: Single(geC(0, 1)), Msg: "x >= 0"})
	res := p.ExecDirected(1, nil, DirectedOptions{})
	if res.Found {
		t.Fatalf("found impossible witness: trace %v", res.Trace)
	}
	if res.Truncated {
		t.Errorf("tiny search reported truncated")
	}
}

// TestExecDirectedSolvesConstants checks constraint-directed value
// selection: assume(x = 4) requires the solver to propose 4, which is not
// in the generic candidate pool.
func TestExecDirectedSolvesConstants(t *testing.T) {
	p := New("const")
	p.Space.Var("x")
	y := p.Space.Var("y")
	p.Emit(&Assume{C: Conj(eqC(-4, 1))})                     // x = 4
	p.Emit(&Havoc{V: y})                                     // y := unknown
	p.Emit(&Assume{C: Conj(eqC(0, 1, -1))})                  // y = x
	p.Emit(&Assert{C: Single(geC(-5, 0, 1)), Msg: "y >= 5"}) // fails: y = 4
	res := p.ExecDirected(3, nil, DirectedOptions{})
	if !res.Found {
		t.Fatalf("constraint-solved witness not found: %+v", res)
	}
}

// TestExecDirectedBoundary checks that inequality boundaries (and their
// just-violating neighbors) are proposed: the only failing value of
// assert(x <= 99) under assume(x <= 100) is far outside the generic pool.
func TestExecDirectedBoundary(t *testing.T) {
	p := New("bound")
	p.Space.Var("x")
	p.Emit(&Assume{C: Conj(geC(0, 1), geC(100, -1))}) // 0 <= x <= 100
	p.Emit(&Assert{C: Single(geC(99, -1)), Msg: "x <= 99"})
	res := p.ExecDirected(1, nil, DirectedOptions{})
	if !res.Found {
		t.Fatalf("boundary witness (x = 100) not found: %+v", res)
	}
}

func TestExecDirectedHints(t *testing.T) {
	// Without a hint the witness x = 77 is unreachable; with one it is
	// found immediately.
	p := New("hint")
	x := p.Space.Var("x")
	p.Emit(&Havoc{V: x})
	neq := DNF{
		{geC(-78, 1)}, // x >= 78
		{geC(76, -1)}, // x <= 76
	}
	p.Emit(&Assert{C: neq, Msg: "x != 77"})
	if res := p.ExecDirected(1, nil, DirectedOptions{}); res.Found {
		t.Fatalf("witness found without hint: %v", res.Trace)
	}
	hints := map[int]*big.Int{x: big.NewInt(77)}
	if res := p.ExecDirected(1, hints, DirectedOptions{}); !res.Found {
		t.Fatalf("hinted witness not found")
	}
}

func TestExecDirectedFirstErrorSemantics(t *testing.T) {
	// Both asserts fail on x = 0, but the first one halts the path: the
	// second is not witnessable.
	p := New("first")
	x := p.Space.Var("x")
	p.Emit(&Havoc{V: x})
	p.Emit(&Assume{C: Single(eqC(0, 1))})                 // x = 0
	p.Emit(&Assert{C: Single(geC(-1, 1)), Msg: "x >= 1"}) // fails first
	p.Emit(&Assert{C: Single(geC(-2, 1)), Msg: "x >= 2"}) // shadowed
	if res := p.ExecDirected(3, nil, DirectedOptions{}); res.Found {
		t.Errorf("shadowed assert witnessed: %v", res.Trace)
	}
	if res := p.ExecDirected(2, nil, DirectedOptions{}); !res.Found {
		t.Errorf("first assert not witnessed")
	}
}

func TestExecDirectedBranches(t *testing.T) {
	// The violation hides behind the non-taken edge of a nondeterministic
	// branch.
	p := New("branch")
	x := p.Space.Var("x")
	p.Emit(&Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&IfGoto{Target: "skip"}) // if (unknown)
	p.Emit(&Assign{V: x, E: linear.ConstExpr(5)})
	p.Emit(&Label{Name: "skip"})
	p.Emit(&Assert{C: Single(geC(-1, 1)), Msg: "x >= 1"}) // fails when skipped
	res := p.ExecDirected(4, nil, DirectedOptions{})
	if !res.Found {
		t.Fatalf("branch witness not found")
	}
}

func TestExecDirectedUnverifiableNeverTarget(t *testing.T) {
	p := New("unv")
	p.Space.Var("x")
	p.Emit(&Assert{Unverifiable: true, Msg: "opaque"})
	if res := p.ExecDirected(0, nil, DirectedOptions{}); res.Found {
		t.Errorf("unverifiable assert must not be witnessable")
	}
}

func TestExecDirectedDeterministic(t *testing.T) {
	p := New("det")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	p.Emit(&Havoc{V: x})
	p.Emit(&Havoc{V: y})
	p.Emit(&Assume{C: Single(geC(0, 1, 1))})
	p.Emit(&Assert{C: Single(geC(0, 1, -1)), Msg: "x >= y"})
	first := p.ExecDirected(3, nil, DirectedOptions{})
	for i := 0; i < 5; i++ {
		again := p.ExecDirected(3, nil, DirectedOptions{})
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs: %+v vs %+v", i, first, again)
		}
	}
}

func TestExecDirectedBudgetTruncates(t *testing.T) {
	// An infinite loop ahead of the target exhausts any finite budget.
	p := New("loop")
	x := p.Space.Var("x")
	p.Emit(&Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&Label{Name: "L"})
	p.Emit(&Goto{Target: "L"})
	p.Emit(&Assert{C: Single(geC(-1, 1)), Msg: "dead"})
	res := p.ExecDirected(3, nil, DirectedOptions{Budget: 100})
	if res.Found {
		t.Fatalf("witness found through an infinite loop")
	}
	if !res.Truncated {
		t.Errorf("budget exhaustion not reported as truncated")
	}
}

func TestExecTruncatedFlag(t *testing.T) {
	p := New("loop")
	x := p.Space.Var("x")
	p.Emit(&Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&Label{Name: "L"})
	p.Emit(&Goto{Target: "L"})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	violated, truncated := p.Exec(rng, 50)
	if len(violated) != 0 {
		t.Errorf("violations in a loop with no asserts: %v", violated)
	}
	if !truncated {
		t.Errorf("infinite loop not reported truncated")
	}

	q := New("straight")
	y := q.Space.Var("y")
	q.Emit(&Assign{V: y, E: linear.ConstExpr(1)})
	q.Emit(&Assert{C: Single(geC(0, 1)), Msg: "y >= 0"})
	if err := q.Resolve(); err != nil {
		t.Fatal(err)
	}
	violated, truncated = q.Exec(rng, 0) // 0 = DefaultMaxSteps
	if truncated {
		t.Errorf("straight-line program reported truncated")
	}
	if len(violated) != 0 {
		t.Errorf("unexpected violations: %v", violated)
	}
}

// TestExecDirectedMemoTailCheck replays recorded subtrees that end on a
// budget check with no step after it: an empty candidate pool leaves the
// assert's unbound variables without values. Both edges of each branch
// reach the next label in the same state. Below A, the fall-through to B
// hits the subtree of k = memoMinSteps steps the taken edge recorded, so
// A's subtree of 2k+2 steps ends on that hit's trailing check; the
// fall-through to A hits it after 2k+3 steps. With a budget of 4k+5 the
// unmemoized search runs out at the trailing check, so the hit must stop
// the search; with 4k+6 it must not.
func TestExecDirectedMemoTailCheck(t *testing.T) {
	p := New("tail")
	p.Space.Var("y")
	p.Space.Var("z")
	p.Emit(&IfGoto{Target: "A"})
	p.Emit(&Label{Name: "A"})
	p.Emit(&IfGoto{Target: "B"})
	p.Emit(&Label{Name: "B"})
	for i := 1; i < memoMinSteps; i++ {
		p.Emit(&Assume{C: True()})
	}
	target := len(p.Stmts)
	p.Emit(&Assert{C: Single(geC(0, 1, 1)), Msg: "y + z >= 0"})
	steps := 4*memoMinSteps + 5
	for budget, want := range map[int]DirectedResult{
		steps:     {Truncated: true, Steps: steps},
		steps + 1: {Steps: steps},
	} {
		opts := DirectedOptions{Budget: budget, Values: []int64{}}
		c := p.CompileDirected()
		got := c.Exec(target, nil, opts)
		if ref := execDirectedReference(p, target, nil, opts); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(ref, want) {
			t.Errorf("budget %d: got %+v, reference %+v, want %+v", budget, got, ref, want)
		}
		if overrun := budget == steps; c.last.hits != 2 || (c.last.overruns == 1) != overrun {
			t.Errorf("budget %d: %d hits, %d overruns", budget, c.last.hits, c.last.overruns)
		}
	}
}

// genDirected draws a small integer program, a target, hints and search
// options from rng: havoc→assume pairs, if (unknown), conditional
// branches with and without FalseC, backward gotos, unverifiable asserts
// and budgets and depths small enough that both truncation paths fire.
// With huge set, some constants, pool values and hints lie near ±2^62 and
// some hints past int64, so the compiled search meets values it cannot
// represent.
func genDirected(rng *rand.Rand, huge bool) (*Program, int, map[int]*big.Int, DirectedOptions) {
	p := New("gen")
	nv := 1 + rng.Intn(4)
	for v := 0; v < nv; v++ {
		p.Space.Var(fmt.Sprintf("x%d", v))
	}
	constant := func() int64 {
		if huge && rng.Intn(4) == 0 {
			k := int64(1)<<62 + rng.Int63n(5) - 2
			if rng.Intn(2) == 0 {
				k = -k
			}
			return k
		}
		return rng.Int63n(11) - 5
	}
	expr := func() linear.Expr {
		e := linear.ConstExpr(constant())
		for v := 0; v < nv; v++ {
			if rng.Intn(2) == 0 {
				e = e.Add(linear.VarExpr(v).Scale(rng.Int63n(7) - 3))
			}
		}
		return e
	}
	cons := func() linear.Constraint {
		if rng.Intn(3) == 0 {
			return linear.NewEq(expr())
		}
		return linear.NewGe(expr())
	}
	dnf := func() DNF {
		d := make(DNF, 1+rng.Intn(2))
		for i := range d {
			for j := 1 + rng.Intn(2); j > 0; j-- {
				d[i] = append(d[i], cons())
			}
		}
		return d
	}
	labels := 1 + rng.Intn(3)
	label := func() string { return fmt.Sprintf("L%d", rng.Intn(labels)) }
	emitted := 0
	for n := 4 + rng.Intn(10); n > 0; n-- {
		switch rng.Intn(10) {
		case 0:
			if emitted < labels {
				p.Emit(&Label{Name: fmt.Sprintf("L%d", emitted)})
				emitted++
			}
		case 1:
			p.Emit(&Assign{V: rng.Intn(nv), E: expr()})
		case 2:
			v := rng.Intn(nv)
			p.Emit(&Havoc{V: v})
			if rng.Intn(3) > 0 {
				e := expr()
				e = e.Add(linear.VarExpr(v).Scale(1 + rng.Int63n(3)))
				p.Emit(&Assume{C: Conj(linear.NewGe(e), cons())})
			}
		case 3:
			p.Emit(&Assume{C: dnf()})
		case 4, 5:
			p.Emit(&Assert{C: dnf(), Msg: "a", Unverifiable: rng.Intn(6) == 0})
		case 6:
			p.Emit(&IfGoto{Target: label()})
		case 7:
			p.Emit(&IfGoto{C: dnf(), Target: label()})
		case 8:
			p.Emit(&IfGoto{C: dnf(), FalseC: dnf(), Target: label()})
		case 9:
			if rng.Intn(2) == 0 {
				p.Emit(&Goto{Target: label()})
			}
		}
	}
	for ; emitted < labels; emitted++ {
		p.Emit(&Label{Name: fmt.Sprintf("L%d", emitted)})
	}
	p.Emit(&Assert{C: dnf(), Msg: "last"})
	asserts := p.Asserts()
	target := asserts[rng.Intn(len(asserts))]
	if rng.Intn(20) == 0 {
		target = rng.Intn(len(p.Stmts) + 1) // not necessarily an assert
	}
	hints := map[int]*big.Int{}
	for v := 0; v < nv; v++ {
		switch {
		case huge && rng.Intn(8) == 0:
			hints[v] = new(big.Int).Lsh(big.NewInt(1), 63) // past int64
		case rng.Intn(3) == 0:
			hints[v] = big.NewInt(constant())
		}
	}
	opts := DirectedOptions{Budget: 1 + rng.Intn(1500)}
	if rng.Intn(3) > 0 {
		opts.MaxDepth = 1 + rng.Intn(40)
	}
	if rng.Intn(2) == 0 {
		opts.Values = []int64{}
		for i := rng.Intn(5); i > 0; i-- {
			opts.Values = append(opts.Values, constant())
		}
	}
	return p, target, hints, opts
}

// Outcomes of one differential trial.
const (
	outExhausted = iota // no witness, search space exhausted
	outFound
	outBudget // truncated by the step budget
	outDepth  // truncated by the depth limit only
	outOverflow
	numOutcomes
)

// checkDirected runs the compiled search and the reference on one trial
// and holds them to the law: without an overflow stop the results are
// identical, Steps included; with one the search is Truncated, not Found.
// It also returns what the search's memo did.
func checkDirected(t *testing.T, p *Program, target int, hints map[int]*big.Int, opts DirectedOptions) (int, memoStats) {
	t.Helper()
	c := p.CompileDirected()
	got, overflow := c.exec(target, hints, opts)
	if c.last.executed > got.Steps {
		t.Fatalf("executed %d statements, more than Steps %d\n%s", c.last.executed, got.Steps, p)
	}
	if overflow {
		if !got.Truncated || got.Found {
			t.Fatalf("overflow stop must be truncated and not found: %+v\n%s", got, p)
		}
		return outOverflow, c.last
	}
	want := execDirectedReference(p, target, hints, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("target %d, hints %v, opts %+v:\ncompiled  %+v\nreference %+v\n%s", target, hints, opts, got, want, p)
	}
	switch {
	case got.Found:
		return outFound, c.last
	case got.Truncated && got.Steps >= opts.Budget:
		return outBudget, c.last
	case got.Truncated:
		return outDepth, c.last
	}
	return outExhausted, c.last
}

// TestExecDirectedMatchesReference holds the compiled search to the exact
// reference on seeded random programs, and requires every path of the law
// to occur: witnesses, budget and depth truncation, overflow stops, memo
// hits, and memo hits the budget cuts short.
func TestExecDirectedMatchesReference(t *testing.T) {
	var n [numOutcomes]int
	hit, overrun := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		p, target, hints, opts := genDirected(rand.New(rand.NewSource(seed)), seed%4 == 3)
		o, st := checkDirected(t, p, target, hints, opts)
		n[o]++
		if st.hits > 0 {
			hit++
		}
		if st.overruns > 0 {
			overrun++
		}
	}
	t.Logf("exhausted %d, found %d, budget-truncated %d, depth-truncated %d, overflow %d; memo hit in %d, budget overrun on a hit in %d",
		n[outExhausted], n[outFound], n[outBudget], n[outDepth], n[outOverflow], hit, overrun)
	for o := outFound; o < numOutcomes; o++ {
		if n[o] == 0 {
			t.Errorf("no trial had outcome %d (found, budget, depth, overflow): %v", o, n)
		}
	}
	if hit == 0 || overrun == 0 {
		t.Errorf("memo hit in %d trials and overran the budget on a hit in %d: both paths must occur", hit, overrun)
	}
}

// FuzzExecDirected holds the compiled search to the exact reference on
// programs drawn from the fuzzed seed; huge draws constants near ±2^62.
func FuzzExecDirected(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, huge bool) {
		p, target, hints, opts := genDirected(rand.New(rand.NewSource(seed)), huge)
		checkDirected(t, p, target, hints, opts)
	})
}

// execDirectedReference is the exact big.Int directed search that
// ExecDirected's compiled int64 search replaces, kept verbatim as the
// differential oracle: closures over a *big.Int environment, candidates
// deduplicated by their decimal strings.
func execDirectedReference(p *Program, target int, hints map[int]*big.Int, opts DirectedOptions) DirectedResult {
	opts.fill()
	res := DirectedResult{}
	if err := p.Resolve(); err != nil {
		return res
	}
	if target < 0 || target >= len(p.Stmts) {
		return res
	}
	if _, ok := p.Stmts[target].(*Assert); !ok {
		return res
	}

	env := make([]*big.Int, p.NumVars())
	var trace []int

	// candidates lists the values tried for v, in order: the hint, values
	// solved from the constraints the binding must satisfy, the generic
	// pool.
	candidates := func(v int, solved []*big.Int) []*big.Int {
		var out []*big.Int
		seen := map[string]bool{}
		add := func(x *big.Int) {
			if x == nil || seen[x.String()] {
				return
			}
			seen[x.String()] = true
			out = append(out, x)
		}
		add(hints[v])
		for _, x := range solved {
			add(x)
		}
		for _, k := range opts.Values {
			add(big.NewInt(k))
		}
		return out
	}

	// solveFor derives candidate values for v from the constraints of d in
	// which v is the only unbound variable: the exact solution of an
	// equality, and the boundary of an inequality together with its
	// just-violating neighbor (boundaries are where asserts tip over).
	// Without this, assume(x = 4) deadends unless 4 happens to be in the
	// generic pool.
	solveFor := func(d DNF, v int, env []*big.Int) []*big.Int {
		var out []*big.Int
		for _, conj := range d {
			for _, c := range conj {
				k := c.E.Coef(v)
				if k.Sign() == 0 {
					continue
				}
				single := true
				for _, u := range c.E.Vars() {
					if u != v && env[u] == nil {
						single = false
						break
					}
				}
				if !single {
					continue
				}
				// c.E = k*x + rest; env[v] == nil, so Eval yields rest.
				a := new(big.Int).Neg(c.E.Eval(env)) // solve k*x = a
				if c.Rel == linear.Eq {
					q, r := new(big.Int).QuoRem(a, k, new(big.Int))
					if r.Sign() == 0 {
						out = append(out, q)
					}
					continue
				}
				// k*x >= a: tightest x is ceil(a/k) for k > 0 and
				// floor(a/k) for k < 0 (big.Int.Div floors for a positive
				// divisor).
				var b *big.Int
				if k.Sign() > 0 {
					num := new(big.Int).Add(a, k)
					num.Sub(num, big.NewInt(1))
					b = num.Div(num, k)
					out = append(out, b, new(big.Int).Sub(b, big.NewInt(1)))
				} else {
					num := new(big.Int).Neg(a)
					b = num.Div(num, new(big.Int).Neg(k))
					out = append(out, b, new(big.Int).Add(b, big.NewInt(1)))
				}
			}
		}
		return out
	}

	// stmtSolved derives candidate values for binding v before executing
	// the statement, from every constraint set the statement evaluates.
	stmtSolved := func(s Stmt, v int, env []*big.Int) []*big.Int {
		switch s := s.(type) {
		case *Assume:
			return solveFor(s.C, v, env)
		case *Assert:
			return solveFor(s.C, v, env)
		case *IfGoto:
			out := solveFor(s.C, v, env)
			return append(out, solveFor(s.FallthroughCond(), v, env)...)
		}
		return nil
	}

	// undefinedVar returns the first variable of e (in index order) that
	// has no value yet, or -1.
	undefinedVar := func(e interface{ Vars() []int }) int {
		vs := e.Vars()
		sort.Ints(vs)
		for _, v := range vs {
			if env[v] == nil {
				return v
			}
		}
		return -1
	}
	undefinedInDNF := func(d DNF) int {
		best := -1
		for _, conj := range d {
			for _, c := range conj {
				if v := undefinedVar(c.E); v >= 0 && (best < 0 || v < best) {
					best = v
				}
			}
		}
		return best
	}

	type status int
	const (
		deadend status = iota
		found
		exhausted // budget ran out: abort the whole search
	)

	var run func(pc, depth int) status
	// withValue binds env[v] = val for the recursive continuation.
	withValue := func(v int, val *big.Int, cont func() status) status {
		old := env[v]
		env[v] = val
		st := cont()
		env[v] = old
		return st
	}
	// choose tries every candidate value for v before re-running pc.
	choose := func(v, pc, depth int) status {
		for _, val := range candidates(v, stmtSolved(p.Stmts[pc], v, env)) {
			st := withValue(v, val, func() status { return run(pc, depth) })
			if st != deadend {
				return st
			}
		}
		return deadend
	}

	// needsVar returns the first variable the statement reads that has no
	// value yet, or -1.
	needsVar := func(s Stmt) int {
		switch s := s.(type) {
		case *Assign:
			return undefinedVar(s.E)
		case *Assume:
			return undefinedInDNF(s.C)
		case *Assert:
			if s.Unverifiable {
				return -1
			}
			return undefinedInDNF(s.C)
		case *IfGoto:
			if v := undefinedInDNF(s.C); v >= 0 {
				return v
			}
			return undefinedInDNF(s.FallthroughCond())
		}
		return -1
	}

	run = func(pc, depth int) status {
		if pc >= len(p.Stmts) {
			return deadend // normal exit: no violation on this path
		}
		if depth >= opts.MaxDepth {
			res.Truncated = true
			return deadend
		}
		if res.Steps >= opts.Budget {
			res.Truncated = true
			return exhausted
		}
		// Bind every undefined variable the statement reads before
		// executing it (initial values are lazy choice points).
		if v := needsVar(p.Stmts[pc]); v >= 0 {
			return choose(v, pc, depth)
		}
		res.Steps++
		trace = append(trace, pc)
		defer func() { trace = trace[:len(trace)-1] }()

		next := func() status { return run(pc+1, depth+1) }

		switch s := p.Stmts[pc].(type) {
		case *Assign:
			return withValue(s.V, s.E.Eval(env), next)
		case *Havoc:
			// Havocked variables are typically constrained by the assume
			// that follows (x := unknown; assume(...)): solve it for s.V so
			// the candidates include the values that matter.
			var solved []*big.Int
			if pc+1 < len(p.Stmts) {
				if a, ok := p.Stmts[pc+1].(*Assume); ok {
					old := env[s.V]
					env[s.V] = nil
					solved = solveFor(a.C, s.V, env)
					env[s.V] = old
				}
			}
			for _, val := range candidates(s.V, solved) {
				if st := withValue(s.V, val, next); st != deadend {
					return st
				}
			}
			return deadend
		case *Assume:
			if !evalDNF(s.C, env) {
				return deadend // blocked
			}
			return next()
		case *Assert:
			violated := s.Unverifiable || !evalDNF(s.C, env)
			if violated {
				if pc == target && !s.Unverifiable {
					res.Found = true
					res.Trace = append([]int(nil), trace...)
					return found
				}
				return deadend // first error is a different assert: halt
			}
			return next()
		case *Goto:
			return run(p.TargetOf(s.Target), depth+1)
		case *IfGoto:
			if s.C == nil {
				// Nondeterministic branch: taken edge first, then the
				// fall-through.
				if st := run(p.TargetOf(s.Target), depth+1); st != deadend {
					return st
				}
				return next()
			}
			if evalDNF(s.C, env) {
				return run(p.TargetOf(s.Target), depth+1)
			}
			if !evalDNF(s.FallthroughCond(), env) {
				return deadend // infeasible fall-through: blocked
			}
			return next()
		default: // *Label
			return next()
		}
	}

	run(0, 0)
	if res.Found {
		res.Truncated = false
	}
	return res
}
