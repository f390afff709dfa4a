package polyhedra

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/linear"
)

// ---------------------------------------------------------------------------
// Differential testing of the hybrid kernel against a pure-big.Int build.
// The reference kernel is selected per run via Config.PureBig, so the two
// scripts can even run concurrently without interfering.

// hybridCoef maps a fuzz byte to a coefficient. Most values are small (the
// common case the machine tier serves); the top values are huge, forcing
// per-row promotion in dot products, combinations and normalization.
func hybridCoef(b byte) int64 {
	switch b % 16 {
	case 15:
		return 1 << 62
	case 14:
		return -(1 << 62)
	case 13:
		return 3037000500 // ~sqrt(MaxInt64); products of two overflow
	default:
		return int64(b%16) - 6
	}
}

// runHybridScript interprets data as a small program over the kernel ops
// (Meet/Join/Widen/Assign/Havoc/Includes/Entails/Bounds) and returns the
// observable transcript. The transcript must be identical whichever tier
// the kernel picks internally; cfg selects the kernel (nil = hybrid,
// PureBig = exact reference). Every polyhedron the script builds is kept
// and its system re-emitted at the end, so an operation that writes into,
// or releases, a row or generator shared with an earlier polyhedron shows
// as a divergence. The kept polyhedra are returned too.
func runHybridScript(data []byte, cfg *Config) ([]string, []*Poly) {
	const dim = 3
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	constraint := func() linear.Constraint {
		e := linear.ConstExpr(hybridCoef(next()))
		for v := 0; v < dim; v++ {
			if next()%2 == 0 {
				e = e.Add(linear.VarExpr(v).Scale(hybridCoef(next())))
			}
		}
		if next()%4 == 0 {
			return linear.NewEq(e)
		}
		return linear.NewGe(e)
	}
	system := func() linear.System {
		n := 1 + int(next()%3)
		var sys linear.System
		for i := 0; i < n; i++ {
			sys = append(sys, constraint())
		}
		return sys
	}
	var states []*Poly
	keep := func(p *Poly) *Poly {
		states = append(states, p)
		return p
	}
	cur := keep(cfg.Universe(dim))
	var trace []string
	emit := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	for step := 0; step < 16 && pos < len(data); step++ {
		switch next() % 7 {
		case 0:
			cur = keep(cur.MeetSystem(system()))
		case 1:
			cur = keep(cur.Join(keep(cfg.FromSystem(system(), dim))))
		case 2:
			cur = keep(cur.Widen(keep(cur.Join(keep(cfg.FromSystem(system(), dim))))))
		case 3:
			e := linear.ConstExpr(hybridCoef(next()))
			for v := 0; v < dim; v++ {
				if next()%2 == 0 {
					e = e.Add(linear.VarExpr(v).Scale(hybridCoef(next())))
				}
			}
			cur = keep(cur.Assign(int(next())%dim, e))
		case 4:
			cur = keep(cur.Havoc(int(next()) % dim))
		case 5:
			q := keep(cfg.FromSystem(system(), dim))
			emit("includes=%v reverse=%v", cur.Includes(q), q.Includes(cur))
		case 6:
			c := constraint()
			v := int(next()) % dim
			lo, hi := cur.Bounds(v)
			emit("entails=%v bounds(%d)=[%v,%v]", cur.Entails(c), v, lo, hi)
		}
		emit("state=%s empty=%v n=%d", cur.System().String(nil), cur.IsEmpty(), len(cur.System()))
	}
	for i, p := range states {
		emit("kept %d=%s", i, p.System().String(nil))
	}
	return trace, states
}

// diffHybrid runs the script on the hybrid kernel — with and without an
// arena — and on the pure-big.Int reference, failing on the first
// transcript mismatch. The arena run is the aliasing oracle: a released
// vector that is still reachable gets recycled into a later polyhedron and
// diverges from the reference.
func diffHybrid(t *testing.T, data []byte) {
	t.Helper()
	want, _ := runHybridScript(data, &Config{PureBig: true})
	for _, kernel := range []struct {
		name string
		cfg  *Config
	}{
		{"hybrid", nil},
		{"arena", &Config{Arena: arena.New()}},
	} {
		got, _ := runHybridScript(data, kernel.cfg)
		if len(got) != len(want) {
			t.Fatalf("%s: transcript lengths differ: %d vs reference %d", kernel.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: transcripts diverge at step %d:\n%s:    %s\nreference: %s",
					kernel.name, i, kernel.name, got[i], want[i])
			}
		}
	}
}

// hybridSeeds are FuzzHybridOps' seed scripts.
func hybridSeeds() [][]byte {
	seeds := [][]byte{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		{13, 13, 13, 14, 14, 15, 15, 15, 13, 14, 15, 0, 1, 5, 6},
		{5, 255, 254, 253, 3, 250, 249, 248, 5, 247, 6, 246, 245},
		{2, 15, 1, 15, 2, 15, 1, 15, 2, 15, 5, 15, 6, 15},
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 8+rng.Intn(40))
		rng.Read(seed)
		seeds = append(seeds, seed)
	}
	return seeds
}

// FuzzHybridOps: randomized op sequences must be bit-identical between the
// hybrid kernel and the pure-big.Int reference.
func FuzzHybridOps(f *testing.F) {
	for _, seed := range hybridSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffHybrid(t, data)
	})
}

// TestHybridDifferentialRandom is the deterministic always-on slice of the
// fuzz target, with coefficient patterns chosen to exercise promotion.
func TestHybridDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		data := make([]byte, 10+rng.Intn(50))
		rng.Read(data)
		diffHybrid(t, data)
	}
}

// TestHybridPromotionOccurs: with huge coefficients the hybrid kernel must
// actually leave the machine tier (guarding against a silently-dead big
// path) and still normalize correctly.
func TestHybridPromotionOccurs(t *testing.T) {
	huge := int64(3037000500)
	e := linear.ConstExpr(0)
	e = e.Add(linear.VarExpr(0).Scale(huge))
	p := FromSystem(linear.System{linear.NewGe(e)}, 1) // huge*x >= 0
	q := p.Assign(0, scaleExpr(huge))                  // x := huge*x, bound becomes huge^2*x >= 0 pre-normalize
	if q.IsEmpty() {
		t.Fatal("assign emptied the polyhedron")
	}
	// x >= 0 must still be entailed (normalization divides the huge gcd).
	if !q.Entails(ge(0, 1, 0)) {
		t.Errorf("x >= 0 lost after promoted assign: %s", q.String(nil))
	}
}

// TestSparseDotMatchesDense holds the inner product over a row's nonzero
// index to the exact big.Int sum over every coordinate, on both tiers. On
// the machine tier the result must also stay a machine word exactly when a
// walk over every coordinate would keep it one: when every nonzero term and
// every partial sum, in ascending order, fits an int64.
func TestSparseDotMatchesDense(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	type tc struct {
		name string
		a, b []int64
	}
	cases := []tc{
		{"zero row", []int64{0, 0, 0, 0}, []int64{3, -1, 7, 2}},
		{"MinInt64 entries", []int64{minI, 0, 1, 0}, []int64{1, 9, -4, 5}},
		{"MinInt64 generator", []int64{0, 1, 0}, []int64{minI, minI, maxI}},
		{"MinInt64 product overflows", []int64{minI, 0, 0}, []int64{-1, 1, 1}},
		{"product overflows", []int64{0, 3037000500, 2}, []int64{5, 3037000500, 1}},
		{"sum overflows", []int64{maxI, 0, 1}, []int64{1, 1, 1}},
		{"partial sum overflows, total fits", []int64{maxI, 1, -1}, []int64{1, 1, 1}},
		{"zero factors", []int64{0, 2, 0, -3}, []int64{maxI, 5, minI, 1}},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(25)
		a, b := make([]int64, n), make([]int64, n)
		for k := 0; k < 1+rng.Intn(5); k++ {
			a[rng.Intn(n)] = hybridCoef(byte(rng.Intn(256)))
		}
		for k := range b {
			b[k] = hybridCoef(byte(rng.Intn(256)))
		}
		cases = append(cases, tc{fmt.Sprintf("random %d", i), a, b})
	}
	exact := func(a, b []int64) (sum *big.Int, fits bool) {
		sum, fits = new(big.Int), true
		for i := range a {
			p := new(big.Int).Mul(big.NewInt(a[i]), big.NewInt(b[i]))
			fits = fits && p.IsInt64()
			sum.Add(sum, p)
			fits = fits && sum.IsInt64()
		}
		return sum, fits
	}
	check := func(name string, a, b vec, want *big.Int, machine bool) {
		t.Helper()
		got := dot(a, b, a.nonzeros(nil))
		if got.bigRef(new(big.Int)).Cmp(want) != 0 {
			t.Errorf("%s: dot = %v, want %v", name, got.bigRef(new(big.Int)), want)
		}
		if (got.b == nil) != machine {
			t.Errorf("%s: machine-tier result = %v, want %v", name, got.b == nil, machine)
		}
	}
	for _, c := range cases {
		want, fits := exact(c.a, c.b)
		wa, wb := vec{w: c.a}, vec{w: c.b}
		check(c.name+" (machine)", wa, wb, want, fits)
		check(c.name+" (exact row)", wa.promoted(), wb, want, false)
		check(c.name+" (exact generator)", wa, wb.promoted(), want, false)
		check(c.name+" (exact)", wa.promoted(), wb.promoted(), want, false)
	}
	// Exact-tier entries beyond a machine word.
	huge := new(big.Int).Lsh(big.NewInt(1), 70)
	a := newVec(4, true)
	a.xs[0].Set(huge)
	a.xs[2].Neg(huge)
	a.xs[3].SetInt64(1)
	b := vec{w: []int64{1, 7, 1, 5}}
	check("beyond int64", a, b, big.NewInt(5), false)
}

func scaleExpr(k int64) linear.Expr {
	e := linear.ConstExpr(0)
	e = e.Add(linear.VarExpr(0).Scale(k))
	return e
}

// TestMaxRaysCapCounted: lowering the ray cap forces conversions to drop
// constraints, and every drop is visible through the run's
// Config.DroppedConstraints.
func TestMaxRaysCapCounted(t *testing.T) {
	cfg := &Config{MaxRays: 1}
	// A 3-cube: once the lines are consumed, each further face splits the
	// ray set and the combination count exceeds the cap of 1.
	cube := linear.System{
		ge(0, 1, 0), ge(5, -1, 0),
		ge(0, 1, 1), ge(5, -1, 1),
		ge(0, 1, 2), ge(5, -1, 2),
	}
	p := cfg.FromSystem(cube, 3)
	if p.IsEmpty() {
		t.Fatal("cube should not be empty")
	}
	if cfg.DroppedConstraints() == 0 {
		t.Fatal("expected the MaxRays=1 cap to drop constraints")
	}
	// Dropping constraints only grows the set: the capped polyhedron must
	// still include the exact cube (computed under the default cap).
	exact := FromSystem(cube, 3)
	if !p.Includes(exact) {
		t.Error("capped conversion is not an over-approximation")
	}
}

// TestRayCapDropSound: a constraint dropped at the ray cap must leave no
// trace in the saturation sets of the kept rays. Its index is reused by the
// next constraint, so a stale bit would make the adjacency test skip real
// extreme rays and the capped polyhedron would come out smaller than the
// exact one.
func TestRayCapDropSound(t *testing.T) {
	// 2*x2 - 2*x3 + x4 >= -1 && -2*x2 - 2*x3 >= -13 && 2*x0 - 2*x1 >= 3 &&
	// -x1 >= -12 && x2 >= -12 && x0 - x1 + 2*x3 - 2*x4 >= -3 &&
	// -x1 >= -1 && 2*x2 >= -9
	sys := linear.System{
		ge(1, 2, 2, -2, 3, 1, 4),
		ge(13, -2, 2, -2, 3),
		ge(-3, 2, 0, -2, 1),
		ge(12, -1, 1),
		ge(12, 1, 2),
		ge(3, 1, 0, -1, 1, 2, 3, -2, 4),
		ge(1, -1, 1),
		ge(9, 2, 2),
	}
	capped := (&Config{MaxRays: 2}).FromSystem(sys, 5)
	exact := (&Config{MaxRays: -1}).FromSystem(sys, 5)
	if !capped.Includes(exact) {
		t.Fatalf("capped conversion lost points:\ncapped: %s\nexact:  %s", capped.String(nil), exact.String(nil))
	}
}

// TestRayCapDropSoundRandom sweeps random inequality systems under tiny
// ray caps: every capped conversion must include the uncapped one.
func TestRayCapDropSoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	failed := 0
	for trial := 0; trial < 20000; trial++ {
		n := 3 + rng.Intn(4)
		var sys linear.System
		for k, m := 0, 4+rng.Intn(10); k < m; k++ {
			e := linear.ConstExpr(int64(rng.Intn(27) - 13))
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					e = e.Add(linear.VarExpr(v).Scale(int64(rng.Intn(5) - 2)))
				}
			}
			sys = append(sys, linear.NewGe(e))
		}
		maxRays := 1 + rng.Intn(6)
		capped := (&Config{MaxRays: maxRays}).FromSystem(sys, n)
		exact := (&Config{MaxRays: -1}).FromSystem(sys, n)
		if !capped.Includes(exact) {
			failed++
			if failed <= 3 {
				t.Errorf("trial %d (MaxRays=%d): capped conversion lost points of %s", trial, maxRays, sys.String(nil))
			}
		}
	}
	if failed > 0 {
		t.Errorf("%d of 20000 capped conversions were unsound", failed)
	}
}

// TestRandomizedSubstitution: Substitute computes the exact weakest
// precondition of the assignment — pointwise: pt satisfies Subst(v, e, P)
// iff pt[v := e(pt)] satisfies P.
func TestRandomizedSubstitution(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := allPoints(3)
	for trial := 0; trial < 120; trial++ {
		sys := randSystem(rng, 1+rng.Intn(3))
		p := FromSystem(sys, 3)
		if p.IsEmpty() {
			continue
		}
		v := rng.Intn(3)
		e := linear.ConstExpr(rng.Int63n(5) - 2)
		for u := 0; u < 3; u++ {
			if rng.Intn(2) == 0 {
				e = e.Add(linear.VarExpr(u).Scale(rng.Int63n(5) - 2))
			}
		}
		sub := p.Substitute(v, e)
		subSys := sub.System()
		for _, pt := range pts {
			bp := []*big.Int{big.NewInt(pt[0]), big.NewInt(pt[1]), big.NewInt(pt[2])}
			img := pt
			img[v] = e.Eval(bp).Int64()
			want := satisfies(sys, img) // P holds after the assignment
			got := !sub.IsEmpty() && satisfies(subSys, pt)
			if want != got {
				t.Fatalf("trial %d: wp wrong at %v (image %v): want %v got %v\nP: %s\nwp: %s",
					trial, pt, img, want, got, sys.String(nil), subSys.String(nil))
			}
		}
	}
}

// TestRandomizedHavocSound: every point reachable by changing the havocked
// coordinate stays inside.
func TestRandomizedHavocSound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := allPoints(2)
	for trial := 0; trial < 100; trial++ {
		sys := randSystem(rng, 1+rng.Intn(3))
		p := FromSystem(sys, 3)
		v := rng.Intn(3)
		h := p.Havoc(v)
		hSys := h.System()
		for _, pt := range pts {
			if !satisfies(sys, pt) {
				continue
			}
			for delta := int64(-3); delta <= 3; delta++ {
				img := pt
				img[v] += delta
				if h.IsEmpty() || !satisfies(hSys, img) {
					t.Fatalf("trial %d: havoc lost point %v", trial, img)
				}
			}
		}
	}
}

// TestWidenSimpleTerminates: chains of WidenSimple strictly shrink the
// constraint set, so a growing sequence stabilizes quickly.
func TestWidenSimpleTerminates(t *testing.T) {
	cur := FromSystem(linear.System{eq(0, 1, 0), eq(0, 1, 1), eq(0, 1, 2)}, 3)
	for step := int64(1); step < 100; step++ {
		next := FromSystem(linear.System{
			eq(-step, 1, 0), eq(-2*step, 1, 1), eq(0, 1, 2),
		}, 3)
		w := cur.WidenSimple(cur.Join(next))
		if w.Equal(cur) {
			// Stabilized; the stable constraint survives.
			if !w.Entails(eq(0, 1, 2)) {
				t.Errorf("stable equality lost: %s", w.String(nil))
			}
			return
		}
		cur = w
		if step > 10 {
			t.Fatalf("WidenSimple did not stabilize after %d steps: %s", step, cur.String(nil))
		}
	}
}

// TestBoundsQueries: boundedness detection across rays and lines.
func TestBoundsQueries(t *testing.T) {
	// x >= 2, no upper bound; y unconstrained (line); z in [1, 3].
	p := FromSystem(linear.System{
		ge(-2, 1, 0),
		ge(-1, 1, 2), ge(3, -1, 2),
	}, 3)
	lo, hi := p.Bounds(0)
	if lo == nil || lo.Cmp(big.NewRat(2, 1)) != 0 || hi != nil {
		t.Errorf("x bounds [%v, %v]", lo, hi)
	}
	lo, hi = p.Bounds(1)
	if lo != nil || hi != nil {
		t.Errorf("y should be unbounded: [%v, %v]", lo, hi)
	}
	lo, hi = p.Bounds(2)
	if lo == nil || hi == nil || lo.Cmp(big.NewRat(1, 1)) != 0 || hi.Cmp(big.NewRat(3, 1)) != 0 {
		t.Errorf("z bounds [%v, %v]", lo, hi)
	}
}

// TestNumConstraintsMinimal: redundant inputs minimize.
func TestNumConstraintsMinimal(t *testing.T) {
	p := FromSystem(linear.System{
		ge(0, 1, 0), ge(1, 1, 0), ge(2, 1, 0), // x >= 0 subsumes the rest
	}, 1)
	p.System() // force minimization
	if n := len(p.System()); n != 1 {
		t.Errorf("minimized to %d constraints, want 1", n)
	}
}
