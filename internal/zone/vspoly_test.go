package zone

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/linear"
	"repro/internal/polyhedra"
)

// runZonePolyScript interprets data as an op script executed in lockstep
// on a zone and on a polyhedron, and checks at every step that the
// polyhedron (the more precise domain, exact for all ops used here) is
// included in the zone: every constraint the zone claims must be entailed
// by the polyhedron. A violation means the zone invented a bound —
// unsoundness in the constraint encoding, the repair on write, the
// machine-tier overflow handling, or operand sharing. The script also
// feeds ±x±y sum constraints, which the zone must drop or weaken
// soundly.
func runZonePolyScript(t *testing.T, data []byte, cfg *Config) {
	t.Helper()
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
		c := zoneCoef(next())
		a := int(next()) % dim
		b := (a + 1 + int(next())%(dim-1)) % dim
		var g linear.Constraint
		switch next() % 6 {
		case 0:
			g = ge(c, 1, int64(a))
		case 1:
			g = ge(c, -1, int64(a))
		case 2:
			g = ge(c, 1, int64(a), -1, int64(b))
		case 3:
			g = ge(c, -1, int64(a), 1, int64(b))
		case 4:
			g = ge(c, 1, int64(a), 1, int64(b))
		default:
			g = ge(c, -1, int64(a), -1, int64(b))
		}
		if next()%5 == 0 {
			g.Rel = linear.Eq
		}
		return g
	}
	z := cfg.Universe(dim)
	poly := (*polyhedra.Config)(nil).Universe(dim)
	check := func(step int, op string) {
		if poly.IsEmpty() {
			return // empty is included in everything
		}
		if z.IsEmpty() {
			t.Fatalf("step %d (%s): zone empty but polyhedron is not:\npoly: %s", step, op, poly.String(nil))
		}
		for _, c := range z.System() {
			if !poly.Entails(c) {
				t.Fatalf("step %d (%s): zone bound %s not entailed by the polyhedron\nzone: %s\npoly: %s",
					step, op, c.String(nil), z.String(nil), poly.String(nil))
			}
		}
	}
	for step := 0; step < 12 && pos < len(data); step++ {
		var op string
		switch next() % 5 {
		case 0:
			g := constraint()
			op = fmt.Sprintf("meet %s", g.String(nil))
			z = z.MeetConstraint(g)
			poly = poly.MeetSystem(linear.System{g})
		case 1:
			g1, g2 := constraint(), constraint()
			op = "join"
			z = z.Join(cfg.Universe(dim).MeetConstraint(g1).MeetConstraint(g2))
			poly = poly.Join((*polyhedra.Config)(nil).Universe(dim).MeetSystem(linear.System{g1, g2}))
		case 2:
			v := int(next()) % dim
			e := linear.ConstExpr(zoneCoef(next()))
			switch next() % 4 {
			case 0:
				e = e.Add(linear.VarExpr(v))
			case 1:
				e = e.Add(linear.VarExpr((v + 1) % dim))
			case 2:
				e = e.Add(linear.VarExpr((v + 1) % dim).Scale(-1))
			}
			op = fmt.Sprintf("assign v%d", v)
			z = z.Assign(v, e)
			poly = poly.Assign(v, e)
		case 3:
			v := int(next()) % dim
			op = fmt.Sprintf("havoc v%d", v)
			z = z.Havoc(v)
			poly = poly.Havoc(v)
		case 4:
			g := constraint()
			op = fmt.Sprintf("entails %s", g.String(nil))
			if z.Entails(g) && !poly.IsEmpty() && !poly.Entails(g) {
				t.Fatalf("step %d: zone entails %s but the polyhedron does not\nzone: %s\npoly: %s",
					step, g.String(nil), z.String(nil), poly.String(nil))
			}
		}
		check(step, op)
	}
}

// vsPolyConfigs are the matrix configurations the cross-check covers:
// the default hybrid kernel and the pure big.Int reference.
func vsPolyConfigs() []*Config {
	return []*Config{nil, {PureBig: true}}
}

// FuzzZoneVsPolyhedra: the zone must never claim a bound the polyhedra
// domain (exact for these ops) refutes, under every matrix configuration.
func FuzzZoneVsPolyhedra(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0, 9, 0, 1, 4, 0, 3, 1, 0, 5, 4, 255, 0, 1, 2, 0, 4, 9, 1, 0, 5})
	f.Add([]byte{2, 15, 0, 1, 4, 0, 2, 14, 1, 0, 4, 0, 1, 13, 0, 1, 5, 0})
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 6; i++ {
		seed := make([]byte, 10+rng.Intn(40))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range vsPolyConfigs() {
			runZonePolyScript(t, data, cfg)
		}
	})
}

// TestZoneVsPolyhedra is the deterministic always-on slice of the fuzz
// target.
func TestZoneVsPolyhedra(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		data := make([]byte, 10+rng.Intn(40))
		rng.Read(data)
		for _, cfg := range vsPolyConfigs() {
			runZonePolyScript(t, data, cfg)
		}
	}
}
