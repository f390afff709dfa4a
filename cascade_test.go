package cssv

import (
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// TestCascadeDifferential: cascade mode must report the identical message
// set — positions, texts, counter-examples — as the plain polyhedra run on
// every suite, while sending a strictly smaller sub-program into the
// polyhedra tier.
func TestCascadeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential is slow")
	}
	suites := []string{
		"testdata/airbus/airbus.c",
		"testdata/fixwrites/fixwrites.c",
		"testdata/running/skipline.c",
	}
	for _, path := range suites {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Analyze(path, string(src), Config{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		casc, err := Analyze(path, string(src), Config{Cascade: true})
		if err != nil {
			t.Fatalf("%s cascade: %v", path, err)
		}
		if len(plain.Procedures) != len(casc.Procedures) {
			t.Fatalf("%s: %d vs %d procedures", path, len(plain.Procedures), len(casc.Procedures))
		}
		for i := range plain.Procedures {
			pp, cp := &plain.Procedures[i], &casc.Procedures[i]
			if pp.Name != cp.Name {
				t.Fatalf("%s: procedure order diverged: %s vs %s", path, pp.Name, cp.Name)
			}
			if len(pp.Messages) != len(cp.Messages) {
				t.Errorf("%s %s: %d vs %d messages", path, pp.Name, len(pp.Messages), len(cp.Messages))
				continue
			}
			for j := range pp.Messages {
				pm, cm := pp.Messages[j], cp.Messages[j]
				if pm.Pos != cm.Pos || pm.Text != cm.Text || pm.Unverifiable != cm.Unverifiable {
					t.Errorf("%s %s message %d differs:\n  plain:   %s %q\n  cascade: %s %q",
						path, pp.Name, j, pm.Pos, pm.Text, cm.Pos, cm.Text)
				}
			}

			// Cascade bookkeeping: stats present, residual strictly smaller.
			if cp.Cascade == nil {
				t.Errorf("%s %s: no cascade stats", path, cp.Name)
				continue
			}
			full := cp.IPVars * cp.IPSize
			residual := cp.Cascade.ResidualVars * cp.Cascade.ResidualStmts
			if full > 0 && residual >= full {
				t.Errorf("%s %s: residual %dx%d not smaller than full IP %dx%d",
					path, cp.Name, cp.Cascade.ResidualVars, cp.Cascade.ResidualStmts,
					cp.IPVars, cp.IPSize)
			}
			if len(cp.Cascade.Tiers) == 0 && len(cp.Cascade.Checks) > 0 {
				t.Errorf("%s %s: checks recorded but no tiers ran", path, cp.Name)
			}
			for _, c := range cp.Cascade.Checks {
				if c.Tier == "" {
					t.Errorf("%s %s: check %q has no deciding tier", path, cp.Name, c.Msg)
				}
			}
			if pp.Cascade != nil {
				t.Errorf("%s %s: plain run carries cascade stats", path, pp.Name)
			}
		}
	}
}

// TestConvertProcNilIP: violations produced upstream of C2IP come with a
// nil integer program; report conversion must not dereference it.
func TestConvertProcNilIP(t *testing.T) {
	pr := &core.ProcReport{
		Name:       "broken",
		Violations: []analysis.Violation{{Msg: "format string is not constant"}},
	}
	p := convertProc(pr) // must not panic
	if len(p.Messages) != 1 {
		t.Fatalf("messages = %d, want 1", len(p.Messages))
	}
	if p.Messages[0].Text == "" {
		t.Error("empty message text")
	}
	if got := p.IntegerProgram(); got != "" {
		t.Errorf("IntegerProgram() = %q, want empty for nil IP", got)
	}
}
