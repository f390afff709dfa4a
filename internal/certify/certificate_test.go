package certify

import (
	"strings"
	"testing"

	"repro/internal/ip"
	"repro/internal/linear"
)

// loopProgram builds
//
//	0: x := 0
//	1: L:
//	2: assert(x >= 0 && 10 - x >= 0)
//	3: x := x + 1
//	4: if (10 - x >= 0) goto L
//
// with a hand-written inductive invariant certificate for the assert.
func loopProgram(t *testing.T) *Certificate {
	t.Helper()
	p := ip.New("loop")
	x := p.Space.Var("x")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&ip.Label{Name: "L"})
	p.Emit(&ip.Assert{
		C:   ip.Conj(ge(0, 1), ge(10, -1)),
		Msg: "x within [0,10]",
	})
	inc := linear.VarExpr(x)
	inc = inc.Add(linear.ConstExpr(1))
	p.Emit(&ip.Assign{V: x, E: inc})
	p.Emit(&ip.IfGoto{C: ip.Single(ge(10, -1)), Target: "L"})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}

	bounds := linear.System{ge(0, 1), ge(10, -1)}   // 0 <= x <= 10
	shifted := linear.System{ge(-1, 1), ge(11, -1)} // 1 <= x <= 11
	return &Certificate{
		Check:     Check{OrigIndex: 2, Msg: "x within [0,10]", Tier: "test"},
		Prog:      p,
		AssertIdx: 2,
		Inv: []linear.System{
			{},          // entry
			bounds,      // at L
			bounds,      // at assert
			bounds,      // after assert
			shifted,     // after x := x + 1
			{ge(-1, 1)}, // exit: x >= 1
		},
		VarNames: []string{"x"},
	}
}

func TestCertificateVerifies(t *testing.T) {
	cert := loopProgram(t)
	if err := cert.Verify(); err != nil {
		t.Fatalf("hand-built certificate rejected: %v", err)
	}
}

// TestCorruptedCertificatesRejected seeds one bug per obligation and checks
// the verifier catches each: a verifier that cannot reject a wrong
// certificate certifies nothing.
func TestCorruptedCertificatesRejected(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(c *Certificate)
		wantErr string
	}{
		{
			// The entry invariant claims x >= 5 before anything ran.
			"initiation",
			func(c *Certificate) { c.Inv[0] = linear.System{ge(-5, 1)} },
			"initiation",
		},
		{
			// The loop-head invariant claims x >= 1, but the edge from
			// x := 0 establishes only x = 0.
			"consecution",
			func(c *Certificate) {
				c.Inv[1] = linear.System{ge(-1, 1), ge(10, -1)}
			},
			"consecution",
		},
		{
			// The loop head reaches the assert, so its invariant is needed:
			// the empty (true) system there does not entail the bounds at
			// the assert. The analysis exports true only at points from
			// which no certified assert can be reached.
			"trivial needed point",
			func(c *Certificate) { c.Inv[1] = linear.System{} },
			"consecution",
		},
		{
			// Dropping the upper bound at the assert breaks the implication:
			// x = 11 satisfies the weakened invariant and violates the check.
			"implication",
			func(c *Certificate) { c.Inv[2] = linear.System{ge(0, 1)} },
			"implication",
		},
		{
			// The invariant of the back edge's source forgets the increment.
			"back edge",
			func(c *Certificate) {
				c.Inv[4] = linear.System{ge(0, 1), ge(9, -1)} // x <= 9 is wrong
			},
			"consecution",
		},
		{
			"invariant count",
			func(c *Certificate) { c.Inv = c.Inv[:3] },
			"points",
		},
		{
			"assert index",
			func(c *Certificate) { c.AssertIdx = 0 },
			"not an assert",
		},
		{
			// Claiming a reachable assert is unreachable must be refuted by
			// the independent graph search.
			"false unreachability",
			func(c *Certificate) { c.Unreachable = true },
			"reachable",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cert := loopProgram(t)
			tc.corrupt(cert)
			err := cert.Verify()
			if err == nil {
				t.Fatalf("corrupted certificate (%s) verified", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestUnreachableCertificate(t *testing.T) {
	p := ip.New("dead")
	x := p.Space.Var("x")
	p.Emit(&ip.Goto{Target: "end"})
	p.Emit(&ip.Assert{C: ip.Single(ge(-1, 1)), Msg: "dead check"})
	p.Emit(&ip.Label{Name: "end"})
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	cert := &Certificate{
		Check:       Check{OrigIndex: 1, Msg: "dead check", Tier: "unreachable"},
		Prog:        p,
		AssertIdx:   1,
		Unreachable: true,
	}
	if err := cert.Verify(); err != nil {
		t.Fatalf("unreachable certificate rejected: %v", err)
	}
}

func TestInvariantAt(t *testing.T) {
	cert := loopProgram(t)
	if _, ok := cert.InvariantAt(2); !ok {
		t.Errorf("InvariantAt(2) not found on identity-mapped certificate")
	}
	cert.OrigStmt = []int{10, 11, 12, 13, 14}
	sys, ok := cert.InvariantAt(12)
	if !ok || len(sys) != 2 {
		t.Errorf("InvariantAt(12) = %v, %v; want the assert invariant", sys, ok)
	}
	if _, ok := cert.InvariantAt(3); ok {
		t.Errorf("InvariantAt(3) found despite not being in the carrier")
	}
}

func TestVerifyAllCounts(t *testing.T) {
	good := loopProgram(t)
	bad := loopProgram(t)
	bad.Inv[2] = linear.System{ge(0, 1)}
	results := VerifyAll([]*Certificate{good, bad})
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Status != StatusCertified {
		t.Errorf("good certificate: %s (%s)", results[0].Status, results[0].Detail)
	}
	if results[1].Status != StatusFailed || results[1].Detail == "" {
		t.Errorf("bad certificate: %s (%s)", results[1].Status, results[1].Detail)
	}
	var o Outcome
	for _, r := range results {
		o.Add(r)
	}
	if o.Certified != 1 || o.Failed != 1 {
		t.Errorf("outcome counters: %+v", o)
	}
}
