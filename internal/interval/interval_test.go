package interval

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

func TestMeetBounds(t *testing.T) {
	b := Universe(2)
	b = b.MeetConstraint(ge(0, 1, 0))  // x >= 0
	b = b.MeetConstraint(ge(5, -1, 0)) // x <= 5
	iv := b.Var(0)
	if iv.Lo.Int64() != 0 || iv.Hi.Int64() != 5 {
		t.Errorf("x in %s, want [0,5]", iv)
	}
	if !b.Entails(ge(0, 1, 0)) || b.Entails(ge(-1, 1, 0)) {
		t.Error("entailment wrong")
	}
}

func TestMeetEmpty(t *testing.T) {
	b := Universe(1)
	b = b.MeetConstraint(ge(-3, 1, 0)) // x >= 3
	b = b.MeetConstraint(ge(1, -1, 0)) // x <= 1
	if !b.IsEmpty() {
		t.Errorf("x>=3 && x<=1 should be empty: %s", b.String(nil))
	}
}

func TestMeetPropagatesThroughSums(t *testing.T) {
	// x >= 0, y >= 0, x + y <= 4 gives x <= 4.
	b := Universe(2)
	b = b.MeetConstraint(ge(0, 1, 0))
	b = b.MeetConstraint(ge(0, 1, 1))
	b = b.MeetConstraint(ge(4, -1, 0, -1, 1))
	if iv := b.Var(0); iv.Hi == nil || iv.Hi.Int64() != 4 {
		t.Errorf("x = %s, want upper bound 4", iv)
	}
}

func TestJoinWiden(t *testing.T) {
	a := Universe(1).MeetConstraint(ge(0, 1, 0)).MeetConstraint(ge(0, -1, 0))  // x == 0
	b := Universe(1).MeetConstraint(ge(-1, 1, 0)).MeetConstraint(ge(1, -1, 0)) // x == 1
	j := a.Join(b)
	if iv := j.Var(0); iv.Lo.Int64() != 0 || iv.Hi.Int64() != 1 {
		t.Errorf("join = %s", iv)
	}
	w := a.Widen(j)
	if iv := w.Var(0); iv.Lo == nil || iv.Lo.Int64() != 0 || iv.Hi != nil {
		t.Errorf("widen = %s, want [0, +inf]", iv)
	}
	if !w.Includes(a) || !w.Includes(b) || !w.Includes(j) {
		t.Error("widening not extensive")
	}
}

// TestJoinWithEmptyShares: Join and Widen with an empty operand return the
// other box itself, and the operations that write a box write a copy, so
// refining the result leaves the shared box as it was.
func TestJoinWithEmptyShares(t *testing.T) {
	b := Universe(2).MeetConstraint(ge(0, 1, 0)) // x >= 0
	want := b.String(nil)
	for name, s := range map[string]*Box{
		"join":  Bottom(2).Join(b),
		"join'": b.Join(Bottom(2)),
		"widen": Bottom(2).Widen(b),
	} {
		if s != b {
			t.Errorf("%s with an empty box does not return the other box", name)
		}
		s.MeetConstraint(ge(3, -1, 0)).Assign(1, linear.ConstExpr(7)).Havoc(0)
		if got := b.String(nil); got != want {
			t.Fatalf("%s: writing through the result changed the shared box: %s, want %s", name, got, want)
		}
	}
	// Bottom holds no intervals; operations on it return it, and Var
	// reports an empty interval.
	bot := Bottom(2)
	if bot.vars != nil {
		t.Error("Bottom allocates intervals")
	}
	if bot.MeetConstraint(ge(0, 1, 0)) != bot || bot.Assign(0, linear.ConstExpr(1)) != bot || bot.Havoc(1) != bot {
		t.Error("an operation on an empty box does not return it")
	}
	if iv := bot.Var(1); !iv.isEmpty() {
		t.Errorf("Var on an empty box = %s, want an empty interval", iv)
	}
}

func TestAssignHavoc(t *testing.T) {
	b := Universe(2).MeetConstraint(ge(-2, 1, 0)).MeetConstraint(ge(2, -1, 0)) // x == 2
	e := linear.VarExpr(0).Scale(3)
	e = e.Add(linear.ConstExpr(1))
	b2 := b.Assign(1, e) // y := 3x + 1 = 7
	if iv := b2.Var(1); iv.Lo.Int64() != 7 || iv.Hi.Int64() != 7 {
		t.Errorf("y = %s", iv)
	}
	h := b2.Havoc(1)
	if iv := h.Var(1); !(iv.Lo == nil && iv.Hi == nil) {
		t.Errorf("havoc left %s", iv)
	}
}

// TestSoundVsPoints: randomized bound propagation never cuts off integer
// points satisfying the constraints.
func TestSoundVsPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		b := Universe(2)
		var sys []linear.Constraint
		for k := 0; k < 1+rng.Intn(3); k++ {
			c := ge(rng.Int63n(9)-4, rng.Int63n(5)-2, 0, rng.Int63n(5)-2, 1)
			sys = append(sys, c)
			b = b.MeetConstraint(c)
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
				if b.IsEmpty() {
					t.Fatalf("trial %d: point (%d,%d) exists but box is empty", trial, x, y)
				}
				ivx, ivy := b.Var(0), b.Var(1)
				if (ivx.Lo != nil && ivx.Lo.Int64() > x) || (ivx.Hi != nil && ivx.Hi.Int64() < x) ||
					(ivy.Lo != nil && ivy.Lo.Int64() > y) || (ivy.Hi != nil && ivy.Hi.Int64() < y) {
					t.Fatalf("trial %d: point (%d,%d) cut off by %s, %s", trial, x, y, ivx, ivy)
				}
			}
		}
	}
}

func TestSampleAndSystem(t *testing.T) {
	b := Universe(2).MeetConstraint(ge(-3, 1, 0)).MeetConstraint(ge(9, -1, 0))
	pt := b.Sample()
	if pt == nil || pt[0].Cmp(big.NewRat(3, 1)) < 0 {
		t.Errorf("sample = %v", pt)
	}
	sys := b.System()
	if len(sys) != 2 {
		t.Errorf("system = %s", linear.System(sys).String(nil))
	}
	if Bottom(2).Sample() != nil {
		t.Error("bottom sampled")
	}
}
