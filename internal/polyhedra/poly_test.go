package polyhedra

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/linear"
)

// expr builds a linear expression from coefficient/variable pairs plus a
// constant: expr(c, k1, v1, k2, v2, ...) = c + k1*x_v1 + k2*x_v2 + ...
func expr(c int64, terms ...int64) linear.Expr {
	e := linear.ConstExpr(c)
	for i := 0; i+1 < len(terms); i += 2 {
		e = e.Add(linear.VarExpr(int(terms[i+1])).Scale(terms[i]))
	}
	return e
}

func ge(c int64, terms ...int64) linear.Constraint { return linear.NewGe(expr(c, terms...)) }
func eq(c int64, terms ...int64) linear.Constraint { return linear.NewEq(expr(c, terms...)) }

func TestUniverseAndBottom(t *testing.T) {
	u := Universe(3)
	if u.IsEmpty() || !u.IsUniverse() {
		t.Fatal("universe misclassified")
	}
	b := Bottom(3)
	if !b.IsEmpty() {
		t.Fatal("bottom not empty")
	}
	if !u.Includes(b) || b.Includes(u) {
		t.Fatal("inclusion wrong for universe/bottom")
	}
}

// TestUniverseResultKnown holds an operation whose result is the universe
// to a known, empty row set: nil rows would mean "unknown", so the result
// would have no Key and a direct ensureCons, with no generators left to
// convert, would dereference nil.
func TestUniverseResultKnown(t *testing.T) {
	nonneg := FromSystem(linear.System{ge(0, 1, 0)}, 1)
	nonpos := FromSystem(linear.System{ge(0, -1, 0)}, 1)
	atMost5 := FromSystem(linear.System{ge(5, -1, 0)}, 1)
	for name, p := range map[string]*Poly{
		"havoc":       nonneg.Havoc(0),
		"join":        nonneg.Join(nonpos),
		"forget":      nonneg.Forget(0),
		"widen":       nonneg.Widen(atMost5),
		"widenSimple": nonneg.WidenSimple(atMost5),
		"substitute":  Universe(1).Substitute(0, expr(1, 1, 0)),
	} {
		if _, ok := p.Key(); !ok {
			t.Errorf("%s: universe result has no Key", name)
		}
		p.ensureCons()
		if !p.IsUniverse() {
			t.Errorf("%s: got %s, want the universe", name, p.String(nil))
		}
	}
}

// TestJoinWithBottomShares holds the joins and widenings that answer an
// empty operand with the other one's representation, shared rather than
// copied, to leaving the peer intact: the shared copy being found empty
// recycles none of the peer's rows through the arena, and re-minimizing
// one side leaves the other's rows and Minimized flag as they were.
func TestJoinWithBottomShares(t *testing.T) {
	cfg := &Config{Arena: arena.New()}
	// x >= 1 and x <= 0: empty, but not known to be before a conversion.
	q := cfg.FromSystem(linear.System{ge(-1, 1, 0), ge(0, -1, 0)}, 1)
	want, _ := q.Key()
	j := cfg.Bottom(1).Join(q)
	if !j.SameRepr(q) {
		t.Fatal("join with bottom does not share its operand's representation")
	}
	if !j.IsEmpty() {
		t.Fatal("shared copy of an empty system is not empty")
	}
	// Fresh rows are drawn from the arena: a recycled row of q would be
	// overwritten here.
	cfg.FromSystem(linear.System{ge(5, 1, 0), ge(7, -1, 0)}, 1)
	if got, ok := q.Key(); !ok || got != want {
		t.Fatalf("peer's rows changed after the shared copy was found empty: key %q, want %q", got, want)
	}
	if !q.IsEmpty() {
		t.Fatal("peer is no longer empty")
	}

	// x >= 0, x >= -1 (redundant), x <= 3: rows as given, not minimized.
	r := cfg.FromSystem(linear.System{ge(0, 1, 0), ge(1, 1, 0), ge(3, -1, 0)}, 1)
	want, _ = r.Key()
	for name, s := range map[string]*Poly{
		"join":        r.Join(cfg.Bottom(1)),
		"widen":       cfg.Bottom(1).Widen(r),
		"widenSimple": cfg.Bottom(1).WidenSimple(r),
	} {
		if !s.SameRepr(r) {
			t.Fatalf("%s with bottom does not share its operand's representation", name)
		}
		if n := len(s.System()); n != 2 {
			t.Fatalf("%s: re-minimized system has %d rows, want 2", name, n)
		}
		if got, ok := r.Key(); !ok || got != want || r.Minimized() {
			t.Fatalf("%s: re-minimizing the shared copy changed the peer: key %q, want %q, minimized %v", name, got, want, r.Minimized())
		}
		if s.SameRepr(r) {
			t.Fatalf("%s: re-minimized copy still has the peer's representation", name)
		}
	}
}

// TestOperationsLeaveOperandsIntact holds every operation to the ownership
// rule (DESIGN §9.2): the rows and generators an operand holds are shared,
// never written, released or copied. The operands are arena-backed, and
// after each operation the arena is churned: slices are drawn from it and
// scribbled on, so a row or generator released by mistake is overwritten.
// A row written in place shows directly, for example the unnormalized
// 2x - 4 >= 0 kept by a widening.
func TestOperationsLeaveOperandsIntact(t *testing.T) {
	const n = 2
	operands := []struct {
		name string
		mk   func(cfg *Config) *Poly
	}{
		// Rows as given, not minimized; generators come from the first
		// operation that needs them.
		{"unnormalized", func(cfg *Config) *Poly {
			return cfg.FromSystem(linear.System{ge(-4, 2, 0), ge(0, 1, 1), ge(10, -1, 0, -1, 1)}, n)
		}},
		// Rows that come out of a dual conversion, an equality among them.
		{"minimized", func(cfg *Config) *Poly {
			a := cfg.FromSystem(linear.System{ge(0, 1, 0), ge(3, -1, 0), eq(-1, 1, 1)}, n)
			return a.Join(cfg.FromSystem(linear.System{eq(-5, 1, 0), eq(-1, 1, 1)}, n))
		}},
		{"universe", func(cfg *Config) *Poly { return cfg.Universe(n) }},
		{"bottom", func(cfg *Config) *Poly { return cfg.Bottom(n) }},
	}
	e := expr(1, 2, 0, -1, 1) // 1 + 2x - y
	ops := []struct {
		name string
		run  func(p, q *Poly) *Poly // nil when the operation has no Poly result
	}{
		{"MeetSystem", func(p, _ *Poly) *Poly { return p.MeetSystem(linear.System{ge(-6, 3, 1)}) }},
		{"Meet", func(p, q *Poly) *Poly { return p.Meet(q) }},
		{"Join", func(p, q *Poly) *Poly { return p.Join(q) }},
		{"Widen", func(p, q *Poly) *Poly { return p.Widen(q) }},
		{"WidenSimple", func(p, q *Poly) *Poly { return p.WidenSimple(q) }},
		{"Includes", func(p, q *Poly) *Poly { p.Includes(q); return nil }},
		{"Forget", func(p, _ *Poly) *Poly { return p.Forget(1) }},
		{"Havoc", func(p, _ *Poly) *Poly { return p.Havoc(0) }},
		{"Assign", func(p, _ *Poly) *Poly { return p.Assign(0, e) }},
		{"Substitute", func(p, _ *Poly) *Poly { return p.Substitute(1, e) }},
		{"Entails", func(p, _ *Poly) *Poly { p.Entails(ge(-4, 2, 0)); return nil }},
		// System swaps minimized rows into its receiver's own fields, which
		// the rule allows, so it runs on a share: that holds the operand's
		// rows and generators but not its fields.
		{"System", func(p, _ *Poly) *Poly { p.share().System(); return nil }},
		{"SystemOver", func(p, _ *Poly) *Poly { p.SystemOver(func(v int) bool { return v != 0 }); return nil }},
	}
	type snapshot struct {
		key              string
		keyed, minimized bool
		sys, gens        string
	}
	// snap observes p without changing it: the minimized system is
	// computed on a share. Generators are observed only once known, since
	// operations may fill them in lazily.
	snap := func(p *Poly) snapshot {
		k, ok := p.Key()
		s := snapshot{k, ok, p.Minimized(), p.share().System().String(nil), ""}
		if p.gens != nil {
			s.gens = genState(p.gens)
		}
		return s
	}
	changed := func(before, after snapshot) bool {
		if before.gens == "" {
			after.gens = ""
		}
		return after != before
	}
	churn := func(ar *arena.Arena) {
		for i := 0; i < 256; i++ {
			s := ar.Int64sUninit(n + 1)
			for k := range s {
				s[k] = int64(7*i + k + 3)
			}
		}
	}
	for _, op := range ops {
		for _, a := range operands {
			for _, b := range operands {
				cfg := &Config{Arena: arena.New()}
				p, q := a.mk(cfg), b.mk(cfg)
				before := [2]snapshot{snap(p), snap(q)}
				if r := op.run(p, q); r != nil {
					r.System() // conversions that read the shared rows
				}
				churn(cfg.Arena)
				for i, o := range [2]*Poly{p, q} {
					if got := snap(o); changed(before[i], got) {
						t.Errorf("%s(%s, %s): operand %d changed:\ngot  key %q %v, minimized %v: %s\nwant key %q %v, minimized %v: %s",
							op.name, a.name, b.name, i, got.key, got.keyed, got.minimized, got.sys,
							before[i].key, before[i].keyed, before[i].minimized, before[i].sys)
					}
				}
			}
		}
	}

	// A meet on an operand whose generators are known continues their
	// conversion (continueGens), reading the operand's lines and rays in
	// place. Each new row below cuts off some of them, so a continuation
	// that released, or wrote, a vector it borrowed would change every
	// earlier member of the chain.
	chain := []linear.System{
		{ge(6, -1, 0, -1, 1)},              // x + y <= 6
		{ge(0, 1, 0, -1, 1), ge(-1, 1, 1)}, // y <= x, y >= 1
		{ge(-7, 3, 0, -1, 1)},              // 3x - y >= 7
		{ge(-20, 1, 0)},                    // x >= 20: empty
	}
	for _, a := range operands {
		cfg := &Config{Arena: arena.New()}
		p := a.mk(cfg)
		p.IsEmpty()
		members, before := []*Poly{p}, []snapshot{snap(p)}
		for k, sys := range chain {
			r := members[len(members)-1].MeetSystem(sys)
			r.IsEmpty()
			churn(cfg.Arena)
			for i, o := range members {
				if got := snap(o); changed(before[i], got) {
					t.Errorf("%s: meet %d changed chain member %d:\ngot  gens %s\nwant gens %s",
						a.name, k, i, got.gens, before[i].gens)
				}
			}
			members, before = append(members, r), append(before, snap(r))
		}
	}

	// A continued conversion copies its base genset's coefficients and
	// saturation rows into its own cone, so the base is only read: they
	// must come through the continuation, a meet chained on its result
	// and an arena churn as they were.
	for _, a := range operands[:2] {
		cfg := &Config{Arena: arena.New()}
		p := a.mk(cfg)
		p.IsEmpty()
		base := p.gens
		want, wantSat := genState(base), slices.Clone(base.sat)
		r := p.MeetSystem(chain[0])
		if r.base != base {
			t.Fatalf("%s: the meet does not continue its operand's conversion", a.name)
		}
		r.IsEmpty()
		r.MeetSystem(chain[1]).IsEmpty()
		churn(cfg.Arena)
		if got := genState(base); got != want || !slices.Equal(base.sat, wantSat) {
			t.Errorf("%s: continuing a conversion changed its base:\ngot  %s %x\nwant %s %x", a.name, got, base.sat, want, wantSat)
		}
	}
}

func TestMeetEmpty(t *testing.T) {
	// x >= 1 and -x >= 0 is empty.
	p := FromSystem(linear.System{ge(-1, 1, 0), ge(0, -1, 0)}, 1)
	if !p.IsEmpty() {
		t.Fatalf("expected empty, got %s", p.String(nil))
	}
}

func TestSimpleBox(t *testing.T) {
	// 0 <= x <= 4, 0 <= y <= 2.
	p := FromSystem(linear.System{
		ge(0, 1, 0), ge(4, -1, 0),
		ge(0, 1, 1), ge(2, -1, 1),
	}, 2)
	if p.IsEmpty() {
		t.Fatal("box empty")
	}
	lo, hi := p.Bounds(0)
	if lo == nil || hi == nil || lo.Cmp(big.NewRat(0, 1)) != 0 || hi.Cmp(big.NewRat(4, 1)) != 0 {
		t.Errorf("bounds x = [%v, %v], want [0, 4]", lo, hi)
	}
	if !p.Entails(ge(0, 1, 0)) {
		t.Error("box should entail x >= 0")
	}
	if p.Entails(ge(-1, 1, 0)) {
		t.Error("box should not entail x >= 1")
	}
	// x + y <= 6 holds; x + y <= 5 does not.
	if !p.Entails(ge(6, -1, 0, -1, 1)) {
		t.Error("should entail x + y <= 6")
	}
	if p.Entails(ge(5, -1, 0, -1, 1)) {
		t.Error("should not entail x + y <= 5")
	}
}

func TestEqualityPlane(t *testing.T) {
	// x == y over 2 vars.
	p := FromSystem(linear.System{eq(0, 1, 0, -1, 1)}, 2)
	if p.IsEmpty() {
		t.Fatal("plane empty")
	}
	if !p.Entails(eq(0, 1, 0, -1, 1)) {
		t.Error("plane should entail its own equation")
	}
	if !p.Entails(ge(0, 1, 0, -1, 1)) {
		t.Error("x == y should entail x >= y")
	}
	if p.Entails(ge(0, 1, 0)) {
		t.Error("x == y should not bound x")
	}
}

func TestJoinConvexHull(t *testing.T) {
	// Hull of {x==0} and {x==4} in 1D is 0 <= x <= 4.
	p := FromSystem(linear.System{eq(0, 1, 0)}, 1)
	q := FromSystem(linear.System{eq(-4, 1, 0)}, 1)
	j := p.Join(q)
	lo, hi := j.Bounds(0)
	if lo == nil || hi == nil || lo.Cmp(big.NewRat(0, 1)) != 0 || hi.Cmp(big.NewRat(4, 1)) != 0 {
		t.Errorf("hull bounds = [%v, %v], want [0, 4]", lo, hi)
	}
	if !j.Includes(p) || !j.Includes(q) {
		t.Error("hull must include both operands")
	}
}

func TestJoinRelational(t *testing.T) {
	// Hull of {x==0, y==0} and {x==2, y==4}: contains y == 2x relation.
	p := FromSystem(linear.System{eq(0, 1, 0), eq(0, 1, 1)}, 2)
	q := FromSystem(linear.System{eq(-2, 1, 0), eq(-4, 1, 1)}, 2)
	j := p.Join(q)
	if !j.Entails(eq(0, 2, 0, -1, 1)) {
		t.Errorf("hull should entail y == 2x, got %s", j.String(nil))
	}
	if !j.Entails(ge(0, 1, 0)) || !j.Entails(ge(2, -1, 0)) {
		t.Errorf("hull should bound 0 <= x <= 2, got %s", j.String(nil))
	}
}

func TestAssignTranslation(t *testing.T) {
	// From x == 3, assign x := x + 1 -> x == 4.
	p := FromSystem(linear.System{eq(-3, 1, 0)}, 1)
	e := expr(1, 1, 0) // x + 1
	q := p.Assign(0, e)
	if !q.Entails(eq(-4, 1, 0)) {
		t.Errorf("after x := x+1 from x==3: %s, want x == 4", q.String(nil))
	}
}

func TestAssignRelation(t *testing.T) {
	// From 0 <= x <= 2 (y unconstrained), assign y := x + 5.
	p := FromSystem(linear.System{ge(0, 1, 0), ge(2, -1, 0)}, 2)
	q := p.Assign(1, expr(5, 1, 0))
	if !q.Entails(eq(-5, -1, 0, 1, 1)) { // y - x == 5
		t.Errorf("y := x + 5 should give y - x == 5, got %s", q.String(nil))
	}
	if !q.Entails(ge(-5, 1, 1)) || !q.Entails(ge(7, -1, 1)) {
		t.Errorf("5 <= y <= 7 expected, got %s", q.String(nil))
	}
}

func TestAssignNonInvertible(t *testing.T) {
	// From x == 7, y == 1: x := 0. Old info about x must vanish, y kept.
	p := FromSystem(linear.System{eq(-7, 1, 0), eq(-1, 1, 1)}, 2)
	q := p.Assign(0, expr(0))
	if !q.Entails(eq(0, 1, 0)) {
		t.Errorf("x == 0 expected, got %s", q.String(nil))
	}
	if !q.Entails(eq(-1, 1, 1)) {
		t.Errorf("y == 1 should be preserved, got %s", q.String(nil))
	}
	if q.Entails(eq(-7, 1, 0)) {
		t.Error("stale x == 7 retained")
	}
}

func TestHavoc(t *testing.T) {
	p := FromSystem(linear.System{eq(-3, 1, 0), eq(0, 1, 0, -1, 1)}, 2) // x==3, x==y
	q := p.Havoc(0)
	if q.Entails(eq(-3, 1, 0)) {
		t.Error("x constraint should be dropped")
	}
	if !q.Entails(eq(-3, 1, 1)) {
		t.Errorf("y == 3 should survive havoc of x, got %s", q.String(nil))
	}
}

func TestSubstitute(t *testing.T) {
	// p: x >= 10. wp(x := y + 1, p) = y + 1 >= 10 = y >= 9.
	p := FromSystem(linear.System{ge(-10, 1, 0)}, 2)
	q := p.Substitute(0, expr(1, 1, 1))
	if !q.Entails(ge(-9, 1, 1)) {
		t.Errorf("substitution result %s, want y >= 9", q.String(nil))
	}
	if q.Entails(ge(-10, 1, 0)) {
		t.Error("x constraint should be gone after substitution")
	}
}

func TestForget(t *testing.T) {
	p := FromSystem(linear.System{ge(0, 1, 0), ge(5, -1, 0, -1, 1)}, 2)
	q := p.Forget(0)
	if q.Entails(ge(0, 1, 0)) {
		t.Error("constraint on x must be dropped")
	}
	// The x+y <= 5 constraint mentions x, so it is dropped too (Forget is
	// syntactic, unlike Havoc).
	if q.Entails(ge(5, -1, 1)) {
		t.Errorf("forget should not derive projections, got %s", q.String(nil))
	}
}

func TestWidenStabilizes(t *testing.T) {
	// Classic loop: x == 0 widened with hull(x==0, x==1) must give x >= 0.
	p0 := FromSystem(linear.System{eq(0, 1, 0)}, 1)
	p1 := p0.Join(FromSystem(linear.System{eq(-1, 1, 0)}, 1)) // 0 <= x <= 1
	w := p0.Widen(p1)
	if !w.Entails(ge(0, 1, 0)) {
		t.Errorf("widening lost x >= 0: %s", w.String(nil))
	}
	if w.Entails(ge(1, -1, 0)) {
		t.Errorf("widening kept unstable upper bound: %s", w.String(nil))
	}
	// Further iterates are stable.
	p2 := w.Join(FromSystem(linear.System{eq(-2, 1, 0)}, 1))
	w2 := w.Widen(p2)
	if !w2.Equal(w) {
		t.Errorf("widening not stable: %s vs %s", w2.String(nil), w.String(nil))
	}
}

func TestWidenKeepsStableRelation(t *testing.T) {
	// i - j stays equal while both grow: widening should keep i == j.
	p0 := FromSystem(linear.System{eq(0, 1, 0, -1, 1), eq(0, 1, 0)}, 2) // i==j, i==0
	p1 := FromSystem(linear.System{eq(0, 1, 0, -1, 1), ge(0, 1, 0), ge(1, -1, 0)}, 2)
	w := p0.Widen(p0.Join(p1))
	if !w.Entails(eq(0, 1, 0, -1, 1)) {
		t.Errorf("widening lost stable i == j: %s", w.String(nil))
	}
}

func TestSamplePoint(t *testing.T) {
	p := FromSystem(linear.System{ge(-2, 1, 0), ge(8, -1, 0), eq(-1, 1, 1)}, 2)
	pt := p.SamplePoint()
	if pt == nil {
		t.Fatal("no sample point")
	}
	x := pt[0]
	y := pt[1]
	if x.Cmp(big.NewRat(2, 1)) < 0 || x.Cmp(big.NewRat(8, 1)) > 0 {
		t.Errorf("sample x = %v out of [2,8]", x)
	}
	if y.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("sample y = %v, want 1", y)
	}
}

func TestSystemOver(t *testing.T) {
	// x == y + 1, y == z. Keeping only {x, z} should yield x == z + 1.
	p := FromSystem(linear.System{eq(-1, 1, 0, -1, 1), eq(0, 1, 1, -1, 2)}, 3)
	sys := p.SystemOver(func(v int) bool { return v != 1 })
	q := FromSystem(sys, 3)
	if !q.Entails(eq(-1, 1, 0, -1, 2)) {
		t.Errorf("projection lost x == z + 1: %s", sys.String(nil))
	}
	for _, c := range sys {
		for _, v := range c.E.Vars() {
			if v == 1 {
				t.Errorf("projected system mentions eliminated variable: %s", sys.String(nil))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Randomized differential testing against integer-point enumeration.

type point3 [3]int64

func allPoints(lim int64) []point3 {
	var pts []point3
	for x := -lim; x <= lim; x++ {
		for y := -lim; y <= lim; y++ {
			for z := -lim; z <= lim; z++ {
				pts = append(pts, point3{x, y, z})
			}
		}
	}
	return pts
}

func satisfies(sys linear.System, p point3) bool {
	pt := []*big.Int{big.NewInt(p[0]), big.NewInt(p[1]), big.NewInt(p[2])}
	for _, c := range sys {
		if !c.Holds(pt) {
			return false
		}
	}
	return true
}

func randSystem(rng *rand.Rand, ncons int) linear.System {
	var sys linear.System
	for i := 0; i < ncons; i++ {
		e := linear.ConstExpr(rng.Int63n(9) - 4)
		for v := 0; v < 3; v++ {
			if rng.Intn(2) == 0 {
				e = e.Add(linear.VarExpr(v).Scale(rng.Int63n(5) - 2))
			}
		}
		if rng.Intn(4) == 0 {
			sys = append(sys, linear.NewEq(e))
		} else {
			sys = append(sys, linear.NewGe(e))
		}
	}
	return sys
}

// TestRandomizedMinimization checks that conversion round-trips preserve the
// integer points of the polyhedron.
func TestRandomizedMinimization(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := allPoints(3)
	for trial := 0; trial < 200; trial++ {
		sys := randSystem(rng, 1+rng.Intn(5))
		p := FromSystem(sys, 3)
		min := p.System() // forces cons -> gens -> cons
		for _, pt := range pts {
			in := satisfies(sys, pt)
			out := satisfies(min, pt)
			if p.IsEmpty() {
				if in {
					t.Fatalf("trial %d: p empty but %v satisfies %s", trial, pt, sys.String(nil))
				}
				continue
			}
			if in != out {
				t.Fatalf("trial %d: point %v: original=%v minimized=%v\norig: %s\nmin: %s",
					trial, pt, in, out, sys.String(nil), min.String(nil))
			}
		}
	}
}

// TestRandomizedJoinSound checks P subset join and Q subset join, and that the
// join does not contain integer points far outside the hull vertices' box.
func TestRandomizedJoinSound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := allPoints(3)
	for trial := 0; trial < 120; trial++ {
		sysP := randSystem(rng, 1+rng.Intn(4))
		sysQ := randSystem(rng, 1+rng.Intn(4))
		p := FromSystem(sysP, 3)
		q := FromSystem(sysQ, 3)
		j := p.Join(q)
		if !j.Includes(p) || !j.Includes(q) {
			t.Fatalf("trial %d: join does not include operands", trial)
		}
		jsys := j.System()
		for _, pt := range pts {
			if (satisfies(sysP, pt) || satisfies(sysQ, pt)) && !j.IsEmpty() && !satisfies(jsys, pt) {
				t.Fatalf("trial %d: point %v in operand but not join", trial, pt)
			}
		}
	}
}

// TestRandomizedMeetExact checks meet against pointwise conjunction.
func TestRandomizedMeetExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := allPoints(3)
	for trial := 0; trial < 120; trial++ {
		sysP := randSystem(rng, 1+rng.Intn(3))
		sysQ := randSystem(rng, 1+rng.Intn(3))
		p := FromSystem(sysP, 3)
		q := FromSystem(sysQ, 3)
		m := p.Meet(q)
		msys := m.System()
		for _, pt := range pts {
			in := satisfies(sysP, pt) && satisfies(sysQ, pt)
			out := !m.IsEmpty() && satisfies(msys, pt)
			if in != out {
				t.Fatalf("trial %d: meet wrong at %v: want %v got %v", trial, pt, in, out)
			}
		}
	}
}

// TestRandomizedAssignSound checks that the image of every integer point of
// p under an assignment lands inside Assign's result.
func TestRandomizedAssignSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := allPoints(3)
	for trial := 0; trial < 120; trial++ {
		sys := randSystem(rng, 1+rng.Intn(3))
		p := FromSystem(sys, 3)
		v := rng.Intn(3)
		e := linear.ConstExpr(rng.Int63n(7) - 3)
		for u := 0; u < 3; u++ {
			if rng.Intn(2) == 0 {
				e = e.Add(linear.VarExpr(u).Scale(rng.Int63n(5) - 2))
			}
		}
		res := p.Assign(v, e)
		rsys := res.System()
		for _, pt := range pts {
			if !satisfies(sys, pt) {
				continue
			}
			bp := []*big.Int{big.NewInt(pt[0]), big.NewInt(pt[1]), big.NewInt(pt[2])}
			nv := e.Eval(bp)
			img := pt
			img[v] = nv.Int64()
			if res.IsEmpty() || !satisfies(rsys, img) {
				t.Fatalf("trial %d: image %v of %v not in assign result %s (v=%d, e=%s)",
					trial, img, pt, rsys.String(nil), v, e.String(nil))
			}
		}
	}
}

// TestRandomizedWidenSound checks extensiveness of widening.
func TestRandomizedWidenSound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		p := FromSystem(randSystem(rng, 1+rng.Intn(3)), 3)
		q := p.Join(FromSystem(randSystem(rng, 1+rng.Intn(3)), 3))
		w := p.Widen(q)
		if !w.Includes(p) || !w.Includes(q) {
			t.Fatalf("trial %d: widening not extensive", trial)
		}
	}
}

// TestRandomizedInclusion cross-checks Includes against point enumeration.
func TestRandomizedInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := allPoints(2)
	for trial := 0; trial < 150; trial++ {
		sysP := randSystem(rng, 1+rng.Intn(3))
		sysQ := randSystem(rng, 1+rng.Intn(3))
		p := FromSystem(sysP, 3)
		q := FromSystem(sysQ, 3)
		if p.Includes(q) {
			for _, pt := range pts {
				if satisfies(sysQ, pt) && !satisfies(sysP, pt) && !q.IsEmpty() {
					t.Fatalf("trial %d: Includes true but point %v in Q only", trial, pt)
				}
			}
		}
	}
}
