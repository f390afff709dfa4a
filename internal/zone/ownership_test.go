package zone

import (
	"math/rand"
	"testing"

	"repro/internal/linear"
)

// TestZoneOperationsLeaveOperandsIntact holds every operation to the
// ownership rule (DESIGN §9.2): a DBM an operation returns is never
// written afterwards, except to close it in place or to change its tier,
// so a result may be one of its operands. The operands are random closed
// zones, an unclosed widening result, an exact-tier zone and bottom. Each
// operand's closed-form Key must survive the operation, and again the
// later operations run on its result, which may share the operand; the
// result's own closed-form Key must survive those too.
func TestZoneOperationsLeaveOperandsIntact(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(5))
	// random returns a zone-shaped constraint the origin satisfies, so a
	// meet of them is never empty.
	random := func() linear.Constraint {
		c := rng.Int63n(7)
		a, b := int64(rng.Intn(n)), int64(rng.Intn(n))
		switch {
		case rng.Intn(2) == 0:
			return ge(c, 1-2*rng.Int63n(2), a) // ±x_a + c >= 0
		case a == b:
			return ge(c, -1, a)
		default:
			return ge(c, 1, a, -1, b) // x_a - x_b + c >= 0
		}
	}
	closedZone := func() *DBM {
		d := Universe(n)
		for k := 0; k < 4; k++ {
			d = d.MeetConstraint(random())
		}
		return d
	}
	const huge = int64(1) << 62
	operands := []struct {
		name string
		mk   func() *DBM
	}{
		{"closed", closedZone},
		{"widened", func() *DBM {
			a := closedZone()
			w := a.Widen(a.Join(closedZone()))
			if w.closed {
				t.Fatal("precondition: a widening result should be unclosed")
			}
			return w
		}},
		{"exact", func() *DBM {
			d := closedZone().Havoc(0).MeetConstraint(ge(huge, -1, 0)).MeetConstraint(ge(0, 1, 0))
			d = d.Assign(0, linear.VarExpr(0).Add(linear.ConstExpr(huge))) // x0 in [2^62, 2^63]
			if d.mx == nil {
				t.Fatal("precondition: the shifted zone should be on the exact tier")
			}
			return d
		}},
		{"bottom", func() *DBM { return Bottom(n) }},
	}
	// closedKey is d's Key once closed, computed on a copy so that an
	// unclosed operand stays unclosed.
	closedKey := func(d *DBM) string {
		if d.empty {
			return "empty"
		}
		c := d.clone()
		c.close()
		k, _ := c.Key()
		return k
	}
	shift := linear.VarExpr(0).Add(linear.ConstExpr(3))            // x0 + 3
	copyOf := linear.VarExpr(0).Add(linear.ConstExpr(-1))          // x0 - 1
	general := linear.VarExpr(1).Scale(2).Add(linear.ConstExpr(1)) // 2*x1 + 1
	ops := []struct {
		name string
		run  func(a, b *DBM) *DBM // nil when the operation has no DBM result
	}{
		{"MeetConstraint", func(a, _ *DBM) *DBM { return a.MeetConstraint(ge(-1, 1, 0)) }},
		{"MeetConstraint/eq", func(a, _ *DBM) *DBM { return a.MeetConstraint(eq(-2, 1, 1, -1, 2)) }},
		{"MeetConstraint/ignored", func(a, _ *DBM) *DBM { return a.MeetConstraint(ge(-1, 2, 0, 3, 1)) }},
		{"Join", func(a, b *DBM) *DBM { return a.Join(b) }},
		{"Widen", func(a, b *DBM) *DBM { return a.Widen(b) }},
		{"Havoc", func(a, _ *DBM) *DBM { return a.Havoc(1) }},
		{"Assign/shift", func(a, _ *DBM) *DBM { return a.Assign(0, shift) }},
		{"Assign/const", func(a, _ *DBM) *DBM { return a.Assign(1, linear.ConstExpr(5)) }},
		{"Assign/copy", func(a, _ *DBM) *DBM { return a.Assign(2, copyOf) }},
		{"Assign/general", func(a, _ *DBM) *DBM { return a.Assign(0, general) }},
		{"Includes", func(a, b *DBM) *DBM { a.Includes(b); return nil }},
		{"Entails", func(a, _ *DBM) *DBM { a.Entails(ge(4, -1, 0, 1, 1)); return nil }},
		{"SameRepr", func(a, b *DBM) *DBM { a.SameRepr(b); return nil }},
		{"System", func(a, _ *DBM) *DBM { a.System(); return nil }},
		{"Bounds", func(a, _ *DBM) *DBM { a.Bounds(1); return nil }},
		{"Sample", func(a, _ *DBM) *DBM { a.Sample(); return nil }},
	}
	// later runs every writing operation on r, as the fixpoint engine
	// does on a state it has stored.
	later := func(r, o *DBM) {
		r.MeetConstraint(ge(-2, 1, 1))
		r.MeetConstraint(eq(0, 1, 0, -1, 2))
		r.Assign(0, shift)
		r.Assign(1, linear.ConstExpr(-4))
		r.Assign(2, copyOf)
		r.Assign(0, general)
		r.Havoc(0)
		r.Join(o)
		o.Join(r)
		r.Widen(o)
		o.Widen(r)
	}
	for trial := 0; trial < 10; trial++ {
		for _, op := range ops {
			for _, a := range operands {
				for _, b := range operands {
					p, q := a.mk(), b.mk()
					before := [2]string{closedKey(p), closedKey(q)}
					check := func(when string) {
						for i, o := range [2]*DBM{p, q} {
							if got := closedKey(o); got != before[i] {
								t.Fatalf("trial %d, %s(%s, %s): operand %d changed %s, now %s",
									trial, op.name, a.name, b.name, i, when, o.String(nil))
							}
						}
					}
					r := op.run(p, q)
					check("by the operation")
					if r == nil {
						continue
					}
					rk := closedKey(r)
					later(r, q)
					check("by later operations on the result")
					if got := closedKey(r); got != rk {
						t.Fatalf("trial %d, %s(%s, %s): result changed by later operations: %s",
							trial, op.name, a.name, b.name, r.String(nil))
					}
				}
			}
		}
	}

	for _, cfg := range []*Config{nil, {PureBig: true}} {
		bot := cfg.Bottom(n)
		if bot.mw != nil || bot.mx != nil {
			t.Errorf("Bottom (PureBig=%v) holds a matrix", cfg.pure())
		}
		d := cfg.Universe(n).MeetConstraint(ge(2, -1, 0))
		if bot.Join(d) != d || d.Join(bot) != d || bot.Widen(d) != d || d.Widen(bot) != d {
			t.Errorf("a join or widening with bottom (PureBig=%v) must return the other operand", cfg.pure())
		}
	}
}
