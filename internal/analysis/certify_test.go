package analysis

import (
	"math/big"
	"reflect"
	"testing"

	"repro/internal/certify"
	"repro/internal/ip"
	"repro/internal/linear"
)

// TestCounterExampleIntegralSnapping: the bad region 0 <= x <= 10 has the
// integral lex-min corner x = 0, so the counter-example must be integral.
func TestCounterExampleIntegralSnapping(t *testing.T) {
	p := ip.New("t")
	x := p.Space.Var("x")
	lo := linear.NewGe(linear.VarExpr(x)) // x >= 0
	hi := linear.ConstExpr(10)
	hi = hi.Sub(linear.VarExpr(x)) // 10 - x >= 0
	p.Emit(&ip.Assume{C: ip.Conj(lo, linear.NewGe(hi))})
	// assert(x >= 1): violated by x = 0 only.
	one := linear.VarExpr(x)
	one = one.Add(linear.ConstExpr(-1))
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(one)), Msg: "x >= 1"})
	res, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("want 1 violation, got %d", len(res.Violations))
	}
	v := res.Violations[0]
	if !v.CounterExampleIntegral {
		t.Errorf("integral witness x = 0 not marked integral: %v", v.CounterExample)
	}
	got := v.CounterExample["x"]
	if got == nil || got.Cmp(new(big.Rat)) != 0 {
		t.Errorf("counter-example x = %v, want 0", got)
	}
}

// TestCounterExampleRationalOnly: assume(2x - 2y = 1) admits no integer
// point at all, so the bad region of the (violated) assert contains only
// rational witnesses and the violation must be marked non-integral.
func TestCounterExampleRationalOnly(t *testing.T) {
	p := ip.New("t")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	diff := linear.VarExpr(x).Scale(2)
	diff = diff.Add(linear.VarExpr(y).Scale(-2))
	diff = diff.Add(linear.ConstExpr(-1)) // 2x - 2y - 1 = 0
	bounds := func(v int) []linear.Constraint {
		hi := linear.ConstExpr(3)
		hi = hi.Sub(linear.VarExpr(v))
		return []linear.Constraint{
			linear.NewGe(linear.VarExpr(v)), // v >= 0
			linear.NewGe(hi),                // v <= 3
		}
	}
	conj := append([]linear.Constraint{linear.NewEq(diff)}, bounds(x)...)
	conj = append(conj, bounds(y)...)
	p.Emit(&ip.Assume{C: ip.DNF{conj}})
	// assert(2x - 2y >= 2): always violated (the region has 2x - 2y = 1),
	// and its integer negation 2x - 2y <= 1 keeps the fractional region.
	c := linear.VarExpr(x).Scale(2)
	c = c.Add(linear.VarExpr(y).Scale(-2))
	c = c.Add(linear.ConstExpr(-2))
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(c)), Msg: "2x - 2y >= 2"})
	res, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("want 1 violation, got %d", len(res.Violations))
	}
	v := res.Violations[0]
	if v.CounterExampleIntegral {
		t.Errorf("rational-only witness marked integral: %v", v.CounterExample)
	}
	fractional := false
	for _, val := range v.CounterExample {
		if !val.IsInt() {
			fractional = true
		}
	}
	if !fractional {
		t.Errorf("expected a fractional coordinate in %v", v.CounterExample)
	}
}

// TestCounterExampleSnapsInsideRegion: the fractional lex-min corner of
// 1/2 <= x <= 5/2 (from 2x >= 1, 5 - 2x >= 0) must snap to the integral
// point x = 1 inside the region, not report 1/2.
func TestCounterExampleSnapsInsideRegion(t *testing.T) {
	p := ip.New("t")
	x := p.Space.Var("x")
	lo := linear.VarExpr(x).Scale(2)
	lo = lo.Add(linear.ConstExpr(-1)) // 2x - 1 >= 0
	hi := linear.VarExpr(x).Scale(-2)
	hi = hi.Add(linear.ConstExpr(5)) // 5 - 2x >= 0
	p.Emit(&ip.Assume{C: ip.Conj(linear.NewGe(lo), linear.NewGe(hi))})
	// assert(x >= 100): everything in the region violates it.
	big100 := linear.VarExpr(x)
	big100 = big100.Add(linear.ConstExpr(-100))
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(big100)), Msg: "x >= 100"})
	res, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("want 1 violation, got %d", len(res.Violations))
	}
	v := res.Violations[0]
	if !v.CounterExampleIntegral {
		t.Fatalf("region contains integers but witness is non-integral: %v", v.CounterExample)
	}
	got := v.CounterExample["x"]
	if got == nil || !got.IsInt() {
		t.Fatalf("counter-example x = %v is not integral", got)
	}
	if got.Num().Int64() < 1 || got.Num().Int64() > 2 {
		t.Errorf("snapped witness x = %v outside [1, 2]", got)
	}
}

// TestCertifyResultPlainRun: the Result.Certificates of a plain Analyze
// run over the canonical loop verify, and cover exactly the discharged
// checks.
func TestCertifyResultPlainRun(t *testing.T) {
	res, err := Analyze(buildLoop(true), Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
	certs := res.Certificates
	if len(certs) != 2 {
		t.Fatalf("want certificates for both asserts, got %d", len(certs))
	}
	for _, cert := range certs {
		if err := cert.Verify(); err != nil {
			t.Errorf("certificate for %q rejected: %v", cert.Check.Msg, err)
		}
	}
}

// TestCertifyResultSkipsViolated: the violated check gets no certificate
// in Result.Certificates.
func TestCertifyResultSkipsViolated(t *testing.T) {
	res, err := Analyze(buildLoop(false), Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("want 1 violation, got %d", len(res.Violations))
	}
	certs := res.Certificates
	if len(certs) != 1 {
		t.Fatalf("want 1 certificate, got %d", len(certs))
	}
	if certs[0].Check.Msg != "x >= 0" {
		t.Errorf("certified wrong check: %q", certs[0].Check.Msg)
	}
	if err := certs[0].Verify(); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
}

// TestCascadeCertificates: every check the cascade discharges (across all
// tiers) carries a certificate that verifies, with correct original-index
// mapping.
func TestCascadeCertificates(t *testing.T) {
	for _, dom := range []Domain{PolyDomain{}, ZoneDomain{}, IntervalDomain{}} {
		res, err := AnalyzeCascade(buildLoop(true), Options{Domain: dom, Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("[%s] unexpected violations: %v", dom.Name(), res.Violations)
		}
		if len(res.Certificates) != 2 {
			t.Fatalf("[%s] want 2 certificates, got %d", dom.Name(), len(res.Certificates))
		}
		orig := buildLoop(true)
		for _, cert := range res.Certificates {
			if err := cert.Verify(); err != nil {
				t.Errorf("[%s] certificate for %q rejected: %v", dom.Name(), cert.Check.Msg, err)
			}
			// The mapped-back index must point at an assert with the same
			// message in the original program.
			a, ok := orig.Stmts[cert.Check.OrigIndex].(*ip.Assert)
			if !ok || a.Msg != cert.Check.Msg {
				t.Errorf("[%s] OrigIndex %d does not name assert %q",
					dom.Name(), cert.Check.OrigIndex, cert.Check.Msg)
			}
		}
	}
}

// TestCascadeUnreachableCertificate: a CFG-unreachable assert gets an
// unreachability certificate that verifies on the original program.
func TestCascadeUnreachableCertificate(t *testing.T) {
	p := ip.New("dead")
	x := p.Space.Var("x")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&ip.Goto{Target: "end"})
	bad := linear.VarExpr(x)
	bad = bad.Add(linear.ConstExpr(-100))
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(bad)), Msg: "dead check"})
	p.Emit(&ip.Label{Name: "end"})
	res, err := AnalyzeCascade(p, Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("unreachable assert reported: %v", res.Violations)
	}
	if len(res.Certificates) != 1 {
		t.Fatalf("want 1 certificate, got %d", len(res.Certificates))
	}
	cert := res.Certificates[0]
	if !cert.Unreachable || cert.Check.Tier != "unreachable" {
		t.Errorf("certificate not marked unreachable: %+v", cert.Check)
	}
	if err := cert.Verify(); err != nil {
		t.Errorf("unreachability certificate rejected: %v", err)
	}
}

// buildBranchy builds
//
//	 0: x := 0
//	 1: y := 0
//	 2: if (n >= 5) goto B     -- a branch that never reaches the assert
//	 3: L:
//	 4: assert(x >= 0)          -- discharged
//	 5: x := x + 1
//	 6: if (9 - x >= 0) goto L
//	 7: y := x                  -- after the loop: no path back to the assert
//	 8: goto E
//	 9: B:
//	10: y := 1
//	11: E:
//	12: y := y + 1
//
// Points 0–6 reach the assert; points 7–12 and the exit (13) do not.
func buildBranchy() *ip.Program {
	p := ip.New("branchy")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	n := p.Space.Var("n")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&ip.Assign{V: y, E: linear.ConstExpr(0)})
	big5 := linear.VarExpr(n)
	big5 = big5.Add(linear.ConstExpr(-5))
	p.Emit(&ip.IfGoto{C: ip.Single(linear.NewGe(big5)), Target: "B"})
	p.Emit(&ip.Label{Name: "L"})
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(linear.VarExpr(x))), Msg: "x >= 0"})
	inc := linear.VarExpr(x)
	inc = inc.Add(linear.ConstExpr(1))
	p.Emit(&ip.Assign{V: x, E: inc})
	p.Emit(&ip.IfGoto{C: ip.Single(linear.NewGe(linear.ConstExpr(9).Sub(linear.VarExpr(x)))), Target: "L"})
	p.Emit(&ip.Assign{V: y, E: linear.VarExpr(x)})
	p.Emit(&ip.Goto{Target: "E"})
	p.Emit(&ip.Label{Name: "B"})
	p.Emit(&ip.Assign{V: y, E: linear.ConstExpr(1)})
	p.Emit(&ip.Label{Name: "E"})
	incY := linear.VarExpr(y)
	incY = incY.Add(linear.ConstExpr(1))
	p.Emit(&ip.Assign{V: y, E: incY})
	return p
}

// reachesAny reports, for every point of p, whether a CFG path leads from
// it to one of the statements in targets (forward search per point).
func reachesAny(p *ip.Program, targets map[int]bool) []bool {
	cfg := p.CFG()
	out := make([]bool, len(cfg))
	for from := range cfg {
		seen := make([]bool, len(cfg))
		stack := []int{from}
		seen[from] = true
		for n := 0; n < len(cfg) && len(stack) > 0; n++ {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if targets[i] {
				out[from] = true
				break
			}
			for _, e := range cfg[i] {
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
	}
	return out
}

// TestCertifiedInvariantsOnlyWhereNeeded: a certificate carries the
// analysis state exactly at the points from which a certified assert can
// be reached, the empty (true) system everywhere else, and still
// verifies — in a plain run and in every tier of the cascade.
func TestCertifiedInvariantsOnlyWhereNeeded(t *testing.T) {
	res, err := Analyze(buildBranchy(), Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	certs := res.Certificates
	if len(certs) != 1 {
		t.Fatalf("want 1 certificate, got %d", len(certs))
	}
	inv := certs[0].Inv
	if len(inv) != len(res.States) {
		t.Fatalf("invariant map has %d points, want %d", len(inv), len(res.States))
	}
	for i, st := range res.States {
		sys := st.System()
		if i <= 6 {
			if !reflect.DeepEqual(inv[i], sys) {
				t.Errorf("point %d reaches the assert: Inv %v, want the state %v", i, inv[i], sys)
			}
			continue
		}
		if len(inv[i]) != 0 {
			t.Errorf("point %d cannot reach the assert: Inv %v, want empty", i, inv[i])
		}
		if i < len(res.Prog.Stmts) && len(sys) == 0 {
			t.Errorf("point %d: state is trivial, so the test proves nothing there", i)
		}
	}
	for _, r := range certify.VerifyAll(certs) {
		if r.Status != certify.StatusCertified {
			t.Errorf("plain certificate for %q: %s (%s)", r.Msg, r.Status, r.Detail)
		}
	}

	for _, p := range []*ip.Program{buildBranchy(), buildLoop(true), buildLoop(false)} {
		cres, err := AnalyzeCascade(p, Options{Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(cres.Certificates) == 0 {
			t.Fatalf("%s: no certificates", p.Name)
		}
		for _, r := range certify.VerifyAll(cres.Certificates) {
			if r.Status != certify.StatusCertified {
				t.Errorf("%s: cascade certificate for %q: %s (%s)", p.Name, r.Msg, r.Status, r.Detail)
			}
		}
		// Certificates of one tier share their carrier; the points needed
		// are those reaching any of that tier's certified asserts.
		certified := map[*ip.Program]map[int]bool{}
		for _, c := range cres.Certificates {
			if certified[c.Prog] == nil {
				certified[c.Prog] = map[int]bool{}
			}
			certified[c.Prog][c.AssertIdx] = true
		}
		for _, c := range cres.Certificates {
			for i, reach := range reachesAny(c.Prog, certified[c.Prog]) {
				if !reach && len(c.Inv[i]) != 0 {
					t.Errorf("%s [%s]: point %d reaches no certified assert but has Inv %v",
						p.Name, c.Check.Tier, i, c.Inv[i])
				}
			}
		}
	}
}

// countingDomain wraps a domain and counts the System conversions of its
// states.
type countingDomain struct {
	Domain
	systems *int
}

func (d countingDomain) Universe(n int) State { return countingState{d.Domain.Universe(n), d.systems} }
func (d countingDomain) Bottom(n int) State   { return countingState{d.Domain.Bottom(n), d.systems} }

type countingState struct {
	State
	systems *int
}

func (s countingState) wrap(st State) State { return countingState{st, s.systems} }
func (s countingState) Join(o State) State  { return s.wrap(s.State.Join(o.(countingState).State)) }
func (s countingState) Widen(o State) State { return s.wrap(s.State.Widen(o.(countingState).State)) }
func (s countingState) WidenSimple(o State) State {
	return s.wrap(s.State.WidenSimple(o.(countingState).State))
}
func (s countingState) MeetSystem(sys linear.System) State { return s.wrap(s.State.MeetSystem(sys)) }
func (s countingState) Assign(v int, e linear.Expr) State  { return s.wrap(s.State.Assign(v, e)) }
func (s countingState) Havoc(v int) State                  { return s.wrap(s.State.Havoc(v)) }
func (s countingState) Includes(o State) bool              { return s.State.Includes(o.(countingState).State) }
func (s countingState) SameRepr(o State) bool              { return s.State.SameRepr(o.(countingState).State) }
func (s countingState) System() linear.System {
	*s.systems++
	return s.State.System()
}

// TestCertifyConvertsNothingWithoutDischarge: a run that discharges no
// check exports no invariant. In the cascade, the final tier of
// buildLoop(false) proves nothing (interval already discharged x >= 0,
// and x <= 9 is violated), so certifying adds no System call on it; a
// plain run restricted to the violated check likewise certifies nothing
// and converts nothing. A plain run that certifies both checks of
// buildLoop(true) converts every point but the exit, which reaches none.
func TestCertifyConvertsNothingWithoutDischarge(t *testing.T) {
	cascadeSystems := func(certifyOn bool) (int, *CascadeResult) {
		var n int
		res, err := AnalyzeCascade(buildLoop(false), Options{
			Domain: countingDomain{PolyDomain{}, &n}, Certify: certifyOn,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, res
	}
	plain, _ := cascadeSystems(false)
	certified, res := cascadeSystems(true)
	final := res.Tiers[len(res.Tiers)-1]
	if final.Domain != "polyhedra" || final.Asserts == 0 || final.Discharged != 0 {
		t.Fatalf("final tier %+v: want a polyhedra tier that discharges nothing", final)
	}
	if len(res.Certificates) != 1 {
		t.Fatalf("want 1 certificate from the interval tier, got %d", len(res.Certificates))
	}
	if certified != plain {
		t.Errorf("final tier discharged nothing, yet certifying made %d System calls (%d without)",
			certified, plain)
	}

	// plainSystems counts the System calls of a plain run, which also
	// convert states for its violations.
	plainSystems := func(p *ip.Program, opts Options, certifyOn bool) (int, *Result) {
		var n int
		opts.Domain, opts.Certify = countingDomain{PolyDomain{}, &n}, certifyOn
		res, err := Analyze(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return n, res
	}
	violated := buildLoop(false).Asserts()[0] // x <= 9
	only := Options{CheckOnly: map[int]bool{violated: true}}
	without, _ := plainSystems(buildLoop(false), only, false)
	with, ares := plainSystems(buildLoop(false), only, true)
	if len(ares.Certificates) != 0 {
		t.Fatalf("certified a violated check: %+v", ares.Certificates[0].Check)
	}
	if with != without {
		t.Errorf("certifying certified nothing, yet made %d System calls", with-without)
	}

	without, _ = plainSystems(buildLoop(true), Options{}, false)
	with, ares = plainSystems(buildLoop(true), Options{}, true)
	if len(ares.Certificates) != 2 {
		t.Fatalf("want 2 certificates, got %d", len(ares.Certificates))
	}
	if got, want := with-without, len(ares.States)-1; got != want {
		t.Errorf("certifying made %d System calls, want %d (every point but the exit)", got, want)
	}
}
