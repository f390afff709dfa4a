package zone

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/linear"
)

// zoneCoef maps a fuzz byte to a bound constant. Most values are small;
// the top cases are near the int64 edge, forcing whole-matrix promotion in
// the closure and the shift-assign paths.
func zoneCoef(b byte) int64 {
	switch b % 16 {
	case 15:
		return 1 << 62
	case 14:
		return -(1 << 62)
	case 13:
		return (1 << 62) + 12345
	default:
		return int64(b%16) - 6
	}
}

// runZoneScriptDim interprets data as a small DBM program over dim
// variables and returns the observable transcript. cfg selects the kernel
// (nil = hybrid, PureBig = exact reference). The differential tests run
// it at dim 3 and at dim 6, where variable pairs outnumber a script's
// constraints and most cells stay +infinity, so repair on write sees
// sparse, partly forgotten matrices.
func runZoneScriptDim(data []byte, cfg *Config, dim int) []string {
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
		c := zoneCoef(next())
		a := int(next()) % dim
		b := int(next()) % dim
		var g linear.Constraint
		switch next() % 4 {
		case 0:
			g = ge(c, 1, int64(a)) // x_a >= -c
		case 1:
			g = ge(c, -1, int64(a)) // x_a <= c
		case 2:
			g = ge(c, 1, int64(a), -1, int64(b)) // x_a - x_b >= -c
		default:
			g = ge(c, -1, int64(a), 1, int64(b))
		}
		if next()%5 == 0 {
			g.Rel = linear.Eq
		}
		return g
	}
	cur := cfg.Universe(dim)
	var trace []string
	emit := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	for step := 0; step < 16 && pos < len(data); step++ {
		switch next() % 7 {
		case 0:
			cur = cur.MeetConstraint(constraint())
		case 1:
			o := cfg.Universe(dim).MeetConstraint(constraint()).MeetConstraint(constraint())
			cur = cur.Join(o)
		case 2:
			o := cur.Join(cfg.Universe(dim).MeetConstraint(constraint()))
			cur = cur.Widen(o)
		case 3:
			v := int(next()) % dim
			e := linear.ConstExpr(zoneCoef(next()))
			switch next() % 3 {
			case 0:
				e = e.Add(linear.VarExpr(v)) // v := v + c
			case 1:
				e = e.Add(linear.VarExpr((v + 1) % dim)) // v := w + c
			}
			cur = cur.Assign(v, e)
		case 4:
			cur = cur.Havoc(int(next()) % dim)
		case 5:
			o := cfg.Universe(dim).MeetConstraint(constraint())
			emit("includes=%v reverse=%v", cur.Includes(o), o.Includes(cur))
		case 6:
			v := int(next()) % dim
			lo, hi := cur.Bounds(v)
			emit("entails=%v bounds(%d)=[%v,%v]", cur.Entails(constraint()), v, lo, hi)
		}
		emit("state=%s empty=%v", cur.System().String(nil), cur.IsEmpty())
	}
	return trace
}

// diffZoneAt runs the script at dimension dim under cfg and under the
// pure-big.Int reference and fails on the first transcript mismatch.
func diffZoneAt(t *testing.T, data []byte, name string, cfg *Config, dim int) {
	t.Helper()
	got := runZoneScriptDim(data, cfg, dim)
	want := runZoneScriptDim(data, &Config{PureBig: true}, dim)
	if len(got) != len(want) {
		t.Fatalf("%s: transcript lengths differ: hybrid %d vs reference %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: transcripts diverge at step %d:\nhybrid:    %s\nreference: %s", name, i, got[i], want[i])
		}
	}
}

// diffZone runs the script on the hybrid DBM at dim 3 and on the
// pure-big.Int reference and fails on the first transcript mismatch.
func diffZone(t *testing.T, data []byte) {
	t.Helper()
	diffZoneAt(t, data, "dim3", nil, 3)
}

// diffZoneSparse runs the script at dim 6, where variable pairs outnumber
// a script's constraints and most cells stay +infinity. A repair bug on a
// sparsely constrained matrix surfaces as a transcript divergence.
func diffZoneSparse(t *testing.T, data []byte) {
	t.Helper()
	diffZoneAt(t, data, "dim6", nil, 6)
}

// FuzzHybridDBM: randomized DBM op sequences must be bit-identical between
// the hybrid matrix and the pure-big.Int reference.
func FuzzHybridDBM(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{13, 13, 14, 14, 15, 15, 13, 14, 15, 3, 13, 3, 14, 3, 15})
	f.Add([]byte{3, 255, 254, 3, 253, 252, 3, 251, 250, 5, 249, 6, 248})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 6; i++ {
		seed := make([]byte, 8+rng.Intn(40))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffZone(t, data)
	})
}

// TestZoneHybridDifferential is the deterministic always-on slice of the
// fuzz target.
func TestZoneHybridDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 10+rng.Intn(50))
		rng.Read(data)
		diffZone(t, data)
	}
}

// FuzzSparseDBM: randomized op sequences over sparsely constrained dim-6
// matrices must be bit-identical to the pure-big.Int reference.
func FuzzSparseDBM(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{3, 255, 254, 3, 253, 252, 3, 251, 250, 5, 249, 6, 248})
	f.Add([]byte{1, 9, 0, 1, 2, 1, 9, 3, 4, 2, 9, 5, 0, 5, 9, 1, 2, 6, 9})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 6; i++ {
		seed := make([]byte, 12+rng.Intn(48))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffZoneSparse(t, data)
	})
}

// TestZoneRepDifferential is the deterministic always-on slice of
// FuzzSparseDBM.
func TestZoneRepDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		data := make([]byte, 12+rng.Intn(50))
		rng.Read(data)
		diffZoneSparse(t, data)
	}
}

// TestZonePromotionRoundTrip: bounds near the int64 edge promote the whole
// matrix and demote back once they cancel, with no value drift.
func TestZonePromotionRoundTrip(t *testing.T) {
	huge := int64(1) << 62
	d := Universe(2)
	d = d.MeetConstraint(ge(huge, -1, 0)) // x <= huge
	d = d.MeetConstraint(ge(0, 1, 0))     // x >= 0
	// x := x + huge: upper bound becomes 2^63 > MaxInt64, promoting.
	e := linear.ConstExpr(huge)
	e = e.Add(linear.VarExpr(0))
	d = d.Assign(0, e)
	if d.mx == nil {
		t.Fatal("expected the shifted DBM to live on the exact tier")
	}
	lo, hi := d.Bounds(0)
	if lo == nil || lo.Num().Int64() != huge {
		t.Errorf("lo = %v, want %d", lo, huge)
	}
	want := "9223372036854775808" // 2^63
	if hi == nil || hi.Num().String() != want {
		t.Errorf("hi = %v, want %s", hi, want)
	}
	// Shifting back down must demote again.
	e2 := linear.ConstExpr(-huge)
	e2 = e2.Add(linear.VarExpr(0))
	d = d.Assign(0, e2)
	if d.mw == nil {
		t.Errorf("expected demotion back to the machine tier")
	}
	lo, hi = d.Bounds(0)
	if lo == nil || hi == nil || lo.Num().Int64() != 0 || hi.Num().Int64() != huge {
		t.Errorf("bounds after round trip [%v, %v]", lo, hi)
	}
}
