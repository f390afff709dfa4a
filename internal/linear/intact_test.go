package linear_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ip"
	"repro/internal/linear"
)

// TestIROperationsLeaveOperandsIntact holds expressions, constraints,
// systems and DNFs to their ownership rule (DESIGN §9.2): a value is never
// written after it is built. Results share coefficient maps, big.Int
// values and conjunct slices with their operands, so an operation that
// wrote any of them in place, or appended into an operand's spare
// capacity, would change an operand. Operands are random, some with
// coefficients beyond int64, and every system and conjunct is a prefix of
// a longer slice whose spare capacity holds other constraints. Each
// operand is snapshotted (String(nil) and each coefficient value, over the
// whole capacity of a slice), every operation runs, its results join the
// operand pool, and every snapshot taken so far must be unchanged.
func TestIROperationsLeaveOperandsIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	huge := new(big.Int).Lsh(big.NewInt(1), 70)
	const nvars = 4
	randExpr := func() linear.Expr {
		var terms []linear.Term
		for v := 0; v < nvars; v++ {
			if rng.Intn(2) == 0 {
				k := big.NewInt(rng.Int63n(7) - 3)
				if rng.Intn(6) == 0 {
					k.Mul(k, huge)
				}
				terms = append(terms, linear.Term{V: v, K: k})
			}
		}
		return linear.NewExpr(big.NewInt(rng.Int63n(11)-5), terms...)
	}
	randCons := func() linear.Constraint {
		if rng.Intn(3) == 0 {
			return linear.NewEq(randExpr())
		}
		return linear.NewGe(randExpr())
	}
	// randSys returns a system of n constraints whose spare capacity holds
	// more of them.
	randSys := func(n int) linear.System {
		full := make(linear.System, n+1+rng.Intn(2))
		for i := range full {
			full[i] = randCons()
		}
		return full[:n]
	}
	randDNF := func() ip.DNF {
		full := make(ip.DNF, 3)
		for i := range full {
			full[i] = randSys(1 + rng.Intn(2))
		}
		return full[:1+rng.Intn(2)]
	}

	snapExpr := func(b *strings.Builder, e linear.Expr) {
		fmt.Fprintf(b, "%s [%s", e.String(nil), e.Const())
		for _, v := range e.Vars() {
			fmt.Fprintf(b, " %d:%s", v, e.Coef(v))
		}
		b.WriteString("]; ")
	}
	snapSys := func(b *strings.Builder, s linear.System) {
		for _, c := range s[:cap(s)] {
			snapExpr(b, c.E)
			b.WriteString(c.Rel.String())
		}
		b.WriteString(" | ")
	}
	type tracked struct {
		what, snap string
		now        func() string
	}
	var all []tracked
	track := func(what string, now func() string) {
		all = append(all, tracked{what, now(), now})
	}
	var exprs []linear.Expr
	var systems []linear.System
	var dnfs []ip.DNF
	addExpr := func(e linear.Expr) {
		exprs = append(exprs, e)
		track("expr", func() string { var b strings.Builder; snapExpr(&b, e); return b.String() })
	}
	addSys := func(s linear.System) {
		systems = append(systems, s)
		track("system", func() string { var b strings.Builder; snapSys(&b, s); return b.String() })
	}
	addDNF := func(d ip.DNF) {
		dnfs = append(dnfs, d)
		track("DNF", func() string {
			var b strings.Builder
			fmt.Fprintf(&b, "%d/%d: ", len(d), cap(d))
			for _, conj := range d[:cap(d)] {
				snapSys(&b, conj)
			}
			return b.String()
		})
	}
	for i := 0; i < 6; i++ {
		addExpr(randExpr())
		addSys(randSys(1 + rng.Intn(3)))
		addDNF(randDNF())
	}
	addDNF(ip.True())
	addDNF(ip.False())
	nbase := len(dnfs)

	pick := func(n int) int { return rng.Intn(n) }
	for round := 0; round < 60; round++ {
		e, f := exprs[pick(len(exprs))], exprs[pick(len(exprs))]
		v := pick(nvars)
		results := []linear.Expr{
			e.Add(f), e.Sub(f), e.Sub(e), e.Scale(-2), e.Scale(0), e.Scale(1), e.Scale(3),
			e.Subst(v, f), e.Subst(v, linear.Expr{}), e.Subst(v, e),
			linear.NewGt(e).E,
		}
		_ = e.String(nil)
		for _, r := range results {
			addExpr(r)
		}
		for _, c := range []linear.Constraint{linear.NewGe(e), linear.NewEq(f)} {
			_ = c.String(nil)
			addSys(linear.System(c.Negate()))
		}
		s := systems[pick(len(systems))]
		_ = s.String(nil)
		// Extending a system that may be shared: never into its spare
		// capacity.
		addSys(append(s[:len(s):len(s)], linear.NewGt(e)))

		// DNF operands come from the initial pool: Negate distributes, so
		// chained results would grow exponentially.
		d, g := dnfs[pick(nbase)], dnfs[pick(nbase)]
		_ = d.String(nil)
		addDNF(d.And(g))
		addDNF(d.Or(g))
		addDNF(d.Negate())
		addDNF(d.And(ip.Conj(linear.NewGt(f))))

		for _, x := range all {
			if got := x.now(); got != x.snap {
				t.Fatalf("round %d: an operation changed a %s operand:\nbefore %s\nafter  %s", round, x.what, x.snap, got)
			}
		}
	}
}
