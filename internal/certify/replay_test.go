package certify

import (
	"testing"

	"repro/internal/ip"
	"repro/internal/linear"
)

// wideProgram is x := unknown; assume(x = k); y := 4*x; assert(y <= 0).
// Its only witness sets x = k, so y = 4k.
func wideProgram(k int64) *ip.Program {
	p := ip.New("wide")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	eq := linear.VarExpr(x)
	eq = eq.Add(linear.ConstExpr(-k))
	p.Emit(&ip.Havoc{V: x})
	p.Emit(&ip.Assume{C: ip.Single(linear.NewEq(eq))})
	p.Emit(&ip.Assign{V: y, E: linear.VarExpr(x).Scale(4)})
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(linear.VarExpr(y).Scale(-1))), Msg: "y <= 0"})
	return p
}

// TestReplayPastInt64IsPotential checks the overflow rule end to end: a
// violation whose only witness needs a value past int64 is reported
// potential with the truncated-search detail, while the same program on
// machine-sized values is witnessed.
func TestReplayPastInt64IsPotential(t *testing.T) {
	req := ReplayRequest{Index: 3, Msg: "y <= 0"}
	if r := Replay(wideProgram(5), req, ip.DirectedOptions{}); r.Status != StatusWitnessed {
		t.Fatalf("y = 20: status %s (%s), want witnessed", r.Status, r.Detail)
	}
	r := Replay(wideProgram(1<<62), req, ip.DirectedOptions{})
	if r.Status != StatusPotential || r.Detail != "directed search truncated before exhausting the space" {
		t.Fatalf("y = 2^64: status %s (%s), want potential with the truncated detail", r.Status, r.Detail)
	}
}
