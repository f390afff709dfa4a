package polyhedra

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arena"
	"repro/internal/linear"
)

// ---------------------------------------------------------------------------
// Exactness oracle for continued conversions. A meet whose operand's
// generators are the conversion of its rows resumes that conversion with
// the new rows only (continueGens). The result must be exactly what gensOf
// makes of all the rows: the same lines, the same rays in the same order,
// the same saturation bitsets and the same drop count. The hybrid-vs-PureBig
// differential cannot see a divergence here, because both of its kernels
// continue.

// vecState renders v's values and tier.
func vecState(v vec) string {
	if v.xs == nil {
		return fmt.Sprint("w", v.w)
	}
	return fmt.Sprint("x", v.xs)
}

// genState renders a genset's whole conversion state.
func genState(g *genset) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ncons=%d nrows=%d dropped=%d", g.ncons, g.nrows, g.dropped)
	for _, l := range g.lines {
		fmt.Fprintf(&sb, "\nline %s", vecState(l))
	}
	for i, r := range g.rays {
		fmt.Fprintf(&sb, "\nray %s sat=%v", vecState(r), satState(g.satOf(i)))
	}
	return sb.String()
}

// satState lists the constraints a saturation row marks, whatever its
// length.
func satState(b bitset) []int {
	var on []int
	for i := 0; i < 64*len(b); i++ {
		if b[i/64]&(1<<uint(i%64)) != 0 {
			on = append(on, i)
		}
	}
	return on
}

// contStats counts what a continuation script exercised.
type contStats struct {
	continued, exact, lines, empty, dropped int
}

// continuationScript decodes data into a dimension, a ray cap and a chain
// of meets, and runs the chain under the hybrid kernel with an arena or,
// when pure, under the PureBig reference. Every meet result's generators
// are compared with a conversion of all its rows from scratch, and every
// chain member's rows and generators must survive the later steps and an
// arena churn. Then each member is widened with the next in both orders;
// the meet results keep their rows as given, unnormalized ones such as
// 2x - 4 >= 0 included, and the widening must leave them as they were.
// The transcript (each member's system and each widening's) must not
// depend on the kernel. The chain is returned too.
func continuationScript(t *testing.T, data []byte, pure bool) ([]string, contStats, []*Poly) {
	t.Helper()
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	n := 1 + int(next()%4)
	cfg := &Config{MaxRays: int(next() % 8), PureBig: pure}
	if cfg.MaxRays == 7 {
		cfg.MaxRays = -1 // unlimited
	}
	if !pure {
		cfg.Arena = arena.New()
	}
	system := func() linear.System {
		var sys linear.System
		for k, m := 0, 1+int(next()%3); k < m; k++ {
			e := linear.ConstExpr(hybridCoef(next()))
			for v := 0; v < n; v++ {
				// Sparse rows leave variables unconstrained, so operands
				// keep lines for the new rows to consume.
				if next()%3 == 0 {
					e = e.Add(linear.VarExpr(v).Scale(hybridCoef(next())))
				}
			}
			if next()%5 == 0 {
				sys = append(sys, linear.NewEq(e))
			} else {
				sys = append(sys, linear.NewGe(e))
			}
		}
		return sys
	}
	churn := func() {
		for i := 0; i < 64; i++ {
			s := cfg.Arena.Int64sUninit(n + 1)
			for k := range s {
				s[k] = int64(5*i + k + 1)
			}
		}
	}
	var st contStats
	var trace []string
	var chain []*Poly
	var before []string // each chain member's rows and generators
	state := func(p *Poly) string {
		s, _ := p.Key()
		if p.gens != nil {
			s += "\n" + genState(p.gens)
		}
		return s
	}
	cur := cfg.FromSystem(system(), n)
	for step := 0; step < 6 && pos < len(data) && !cur.IsEmpty(); step++ {
		chain = append(chain, cur)
		before = append(before, state(cur))
		if next()%4 == 0 {
			// Minimized rows are no longer the rows the generators were
			// converted from, so the next meet must start afresh.
			cur = cur.share()
			cur.System()
		}
		q := cur.MeetSystem(system())
		if q.empty {
			break // a contradiction among the new rows: nothing converted
		}
		rows, base := q.cons, q.base
		continued := base != nil
		d0 := cfg.DroppedConstraints()
		q.IsEmpty()
		ref := gensOf(rows, n, cfg)
		if got := cfg.DroppedConstraints() - d0; got != int64(ref.dropped) {
			t.Fatalf("step %d (continued %v): %d drops counted, a conversion from scratch counts %d", step, continued, got, ref.dropped)
		}
		if continued {
			st.continued++
			if q.empty {
				st.empty++
			}
			if len(base.lines) > 0 {
				st.lines++
			}
			if ref.dropped > 0 {
				st.dropped++
			}
			for _, r := range ref.rays {
				if r.xs != nil && !pure {
					st.exact++
					break
				}
			}
		}
		switch {
		case q.empty && ref.hasVertex():
			t.Fatalf("step %d (continued %v): meet result is empty, a conversion from scratch is not:\n%s", step, continued, genState(ref))
		case !q.empty && genState(q.gens) != genState(ref):
			t.Fatalf("step %d (continued %v): generators differ from a conversion from scratch:\ngot  %s\nwant %s",
				step, continued, genState(q.gens), genState(ref))
		}
		if !pure {
			churn()
		}
		for i, p := range chain {
			if got := state(p); got != before[i] {
				t.Fatalf("step %d: chain member %d changed:\ngot  %s\nwant %s", step, i, got, before[i])
			}
		}
		cur = q
	}
	for i, p := range chain {
		trace = append(trace, fmt.Sprintf("member %d: %s", i, p.share().System().String(nil)))
	}
	for i := 0; i+1 < len(chain); i++ {
		p, q := chain[i], chain[i+1]
		trace = append(trace,
			fmt.Sprintf("widen %d,%d: %s", i, i+1, p.Widen(q).System().String(nil)),
			fmt.Sprintf("widen %d,%d: %s", i+1, i, q.Widen(p).System().String(nil)))
		if !pure {
			churn()
		}
		for j, o := range []*Poly{p, q} {
			if got := state(o); got != before[i+j] {
				t.Fatalf("widening %d,%d changed chain member %d:\ngot  %s\nwant %s", i, i+1, i+j, got, before[i+j])
			}
		}
	}
	return trace, st, chain
}

// diffContinuation runs the continuation script on the hybrid kernel and on
// the PureBig reference and compares their transcripts.
func diffContinuation(t *testing.T, data []byte) contStats {
	t.Helper()
	want, _, _ := continuationScript(t, data, true)
	got, st, _ := continuationScript(t, data, false)
	if len(got) != len(want) {
		t.Fatalf("transcript lengths differ: %d vs reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("transcripts diverge at line %d:\nhybrid:    %s\nreference: %s", i, got[i], want[i])
		}
	}
	return st
}

// continuationSeeds are FuzzContinuedConversion's seed scripts.
func continuationSeeds() [][]byte {
	seeds := [][]byte{
		// Over (x, y): 2x - 4 >= 0, so y is a line; x <= 6 and y >= x + 1
		// continue it, consuming the line. Then the minimized rows and
		// y == 4 start afresh, and (2^62)(1 - x) >= 0 continues that into
		// an empty result on the exact tier.
		{1, 0, 0, 2, 0, 8, 1, 1,
			1, 1, 12, 0, 5, 1, 1, 5, 0, 5, 0, 7, 1,
			0, 0, 2, 1, 0, 7, 0,
			1, 0, 15, 0, 14, 1, 1},
		// Over (x0, x1, x2), ray cap 3: x0 == x1 and x2 == 3 hold no
		// inequality, so x0 == 2*x2 and x0 >= 0 continue them; then
		// x1 <= 6, x0 + x1 + x2 >= 2 and x0 == 6 add an equality after
		// inequalities, which starts afresh.
		{2, 3, 1, 6, 0, 7, 0, 5, 1, 0, 3, 1, 1, 0, 7, 0,
			1, 1, 6, 0, 7, 1, 0, 4, 0, 6, 0, 7, 1, 1, 1,
			1, 2, 12, 1, 0, 5, 1, 1, 4, 0, 7, 0, 7, 0, 7, 1, 0, 0, 7, 1, 1, 0},
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 16+rng.Intn(48))
		rng.Read(seed)
		seeds = append(seeds, seed)
	}
	return seeds
}

// FuzzContinuedConversion: a continued conversion must equal a conversion
// from scratch, leave every operand intact, and agree with the reference
// kernel.
func FuzzContinuedConversion(f *testing.F) {
	for _, seed := range continuationSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffContinuation(t, data)
	})
}

// TestContinuedConversionMatchesScratch is the deterministic always-on
// slice of FuzzContinuedConversion. It also holds the sweep to covering
// what makes continuation delicate: continued conversions on the exact
// tier, operands with lines, results found empty and ray-cap drops.
func TestContinuedConversionMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var total contStats
	for trial := 0; trial < 1500; trial++ {
		data := make([]byte, 16+rng.Intn(64))
		rng.Read(data)
		st := diffContinuation(t, data)
		total.continued += st.continued
		total.exact += st.exact
		total.lines += st.lines
		total.empty += st.empty
		total.dropped += st.dropped
	}
	t.Logf("%+v", total)
	for what, c := range map[string]int{
		"at all": total.continued, "on the exact tier": total.exact, "from an operand with lines": total.lines,
		"found empty": total.empty, "with ray-cap drops": total.dropped,
	} {
		if c == 0 {
			t.Errorf("the sweep made no continued conversion %s", what)
		}
	}
}
