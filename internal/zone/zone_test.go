package zone

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/linear"
)

func ge(c int64, terms ...int64) linear.Constraint {
	e := linear.ConstExpr(c)
	for i := 0; i+1 < len(terms); i += 2 {
		e = e.Add(linear.VarExpr(int(terms[i+1])).Scale(terms[i]))
	}
	return linear.NewGe(e)
}

func eq(c int64, terms ...int64) linear.Constraint {
	g := ge(c, terms...)
	return linear.Constraint{E: g.E, Rel: linear.Eq}
}

func TestZoneBasics(t *testing.T) {
	d := Universe(2)
	d = d.MeetConstraint(ge(0, 1, 0))        // x >= 0
	d = d.MeetConstraint(ge(3, -1, 0))       // x <= 3
	d = d.MeetConstraint(ge(0, 1, 1, -1, 0)) // y >= x
	if d.IsEmpty() {
		t.Fatal("consistent zone empty")
	}
	if !d.Entails(ge(0, 1, 1)) { // y >= 0 by transitivity through closure
		t.Errorf("closure missed y >= 0: %s", d.String(nil))
	}
	if d.Entails(ge(5, -1, 1)) { // y <= 5 not implied
		t.Error("phantom entailment")
	}
}

func TestZoneEmpty(t *testing.T) {
	d := Universe(1)
	d = d.MeetConstraint(ge(-5, 1, 0)) // x >= 5
	d = d.MeetConstraint(ge(3, -1, 0)) // x <= 3
	if !d.IsEmpty() {
		t.Error("negative cycle not detected")
	}
}

func TestZoneEquality(t *testing.T) {
	d := Universe(2).MeetConstraint(eq(0, 1, 0, -1, 1)) // x == y
	if !d.Entails(ge(0, 1, 0, -1, 1)) || !d.Entails(ge(0, -1, 0, 1, 1)) {
		t.Errorf("x == y lost: %s", d.String(nil))
	}
}

func TestZoneJoinWiden(t *testing.T) {
	a := Universe(1).MeetConstraint(eq(0, 1, 0))  // x == 0
	b := Universe(1).MeetConstraint(eq(-2, 1, 0)) // x == 2
	j := a.Join(b)
	if !j.Entails(ge(0, 1, 0)) || !j.Entails(ge(2, -1, 0)) {
		t.Errorf("join = %s", j.String(nil))
	}
	w := a.Widen(j)
	if !w.Entails(ge(0, 1, 0)) {
		t.Errorf("widening lost stable lower bound: %s", w.String(nil))
	}
	if w.Entails(ge(2, -1, 0)) {
		t.Error("widening kept unstable upper bound")
	}
	if !w.Includes(a) || !w.Includes(j) {
		t.Error("widening not extensive")
	}
}

func TestZoneAssign(t *testing.T) {
	d := Universe(2).MeetConstraint(eq(-1, 1, 0)) // x == 1
	// y := x + 4
	e := linear.VarExpr(0)
	e = e.Add(linear.ConstExpr(4))
	d2 := d.Assign(1, e)
	if !d2.Entails(eq(-4, -1, 0, 1, 1)) { // y - x == 4
		t.Errorf("relation missing: %s", d2.String(nil))
	}
	if !d2.Entails(eq(-5, 1, 1)) { // y == 5
		t.Errorf("value missing: %s", d2.String(nil))
	}
	// x := x + 1 (shift)
	inc := linear.VarExpr(0)
	inc = inc.Add(linear.ConstExpr(1))
	d3 := d2.Assign(0, inc)
	if !d3.Entails(eq(-2, 1, 0)) { // x == 2
		t.Errorf("shift wrong: %s", d3.String(nil))
	}
	if !d3.Entails(eq(-3, -1, 0, 1, 1)) { // y - x == 3
		t.Errorf("shift broke the relation: %s", d3.String(nil))
	}
}

func TestZoneHavoc(t *testing.T) {
	d := Universe(2).MeetConstraint(eq(-1, 1, 0)).MeetConstraint(eq(0, 1, 0, -1, 1))
	h := d.Havoc(0)
	if h.Entails(eq(-1, 1, 0)) {
		t.Error("x kept after havoc")
	}
	if !h.Entails(eq(-1, 1, 1)) { // y == 1 survives (x==1, y==x before)
		t.Errorf("derived fact about y lost: %s", h.String(nil))
	}
}

// TestZoneSoundVsPoints: zone meet never cuts integer points of the
// original (zone-shaped) constraints.
func TestZoneSoundVsPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := []func() linear.Constraint{
		func() linear.Constraint { return ge(rng.Int63n(7)-3, 1, 0) },
		func() linear.Constraint { return ge(rng.Int63n(7)-3, -1, 0) },
		func() linear.Constraint { return ge(rng.Int63n(7)-3, 1, 1) },
		func() linear.Constraint { return ge(rng.Int63n(7)-3, -1, 1) },
		func() linear.Constraint { return ge(rng.Int63n(7)-3, 1, 0, -1, 1) },
		func() linear.Constraint { return ge(rng.Int63n(7)-3, -1, 0, 1, 1) },
	}
	for trial := 0; trial < 300; trial++ {
		d := Universe(2)
		var sys []linear.Constraint
		for k := 0; k < 1+rng.Intn(4); k++ {
			c := shapes[rng.Intn(len(shapes))]()
			sys = append(sys, c)
			d = d.MeetConstraint(c)
		}
		for x := int64(-4); x <= 4; x++ {
			for y := int64(-4); y <= 4; y++ {
				pt := []*big.Int{big.NewInt(x), big.NewInt(y)}
				all := true
				for _, c := range sys {
					if !c.Holds(pt) {
						all = false
					}
				}
				if !all {
					continue
				}
				if d.IsEmpty() {
					t.Fatalf("trial %d: point (%d,%d) exists but zone empty", trial, x, y)
				}
				for _, c := range d.System() {
					if !c.Holds(pt) {
						t.Fatalf("trial %d: point (%d,%d) violates closed zone %s",
							trial, x, y, c.String(nil))
					}
				}
			}
		}
	}
}

func TestZoneIgnoresNonZoneShapes(t *testing.T) {
	// 2x + 3y >= 1 is not zone-shaped; meeting must not crash or cut points.
	d := Universe(2).MeetConstraint(ge(-1, 2, 0, 3, 1))
	if d.IsEmpty() {
		t.Error("non-zone constraint emptied the zone")
	}
	if d.Entails(ge(-1, 2, 0, 3, 1)) {
		t.Error("zone claims to entail a shape it cannot represent")
	}
}

// TestSameReprAcrossTiers holds SameRepr to Key equality where the corpus
// does not reach: one matrix on each tier, and an exact bound equal to the
// machine tier's +infinity sentinel, which must not match +infinity.
func TestSameReprAcrossTiers(t *testing.T) {
	d := Universe(2).MeetConstraint(ge(3, -1, 0)).MeetConstraint(ge(0, 1, 1, -1, 0)) // x <= 3, y >= x
	x := d.clone()
	x.promote()
	sentinel := d.clone()
	sentinel.promote()
	sentinel.mx[2][0] = big.NewInt(noBound) // y <= MaxInt64, a finite bound
	if d.mw[2][0] != noBound {
		t.Fatal("y is bounded above; the sentinel case needs an infinite cell")
	}
	for _, tc := range []struct {
		name string
		a, b *DBM
	}{
		{"machine/machine", d, d.clone()},
		{"machine/exact", d, x},
		{"exact/machine", x, d},
		{"exact/exact", x, x.clone()},
		{"sentinel/machine", sentinel, d},
		{"machine/sentinel", d, sentinel},
		{"empty/machine", Bottom(2), d},
		{"empty/empty", Bottom(2), Bottom(2)},
	} {
		ka, _ := tc.a.Key()
		kb, _ := tc.b.Key()
		if got, want := tc.a.SameRepr(tc.b), ka == kb; got != want {
			t.Errorf("%s: SameRepr = %v, keys equal = %v", tc.name, got, want)
		}
	}
}
