// Tests for the parallel procedure-modular driver: reports must be
// bit-identical to a sequential run for every worker count, errors must
// surface exactly as in sequential mode, and the shared immutable inputs
// (the cached libc contract header) must survive runs unmodified.
package cssv

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cast"
	"repro/internal/libc"
)

// stripTimings zeroes every field whose value legitimately varies between
// runs (cost measurements), leaving messages, warnings, iterations, the
// residual program and cascade provenance for the deep comparison. The
// cascade's certificates and analysis violations are dropped too: a cache
// hit carries no certificates, a replayed violation differs from a fresh
// one only in representation, and the violations are compared as Messages.
func stripTimings(r *Report) {
	r.Stats = RunStats{}
	for i := range r.Procedures {
		p := &r.Procedures[i]
		p.CPU = 0
		p.Space = 0
		p.CacheStatus = ""
		if p.Cascade != nil {
			for j := range p.Cascade.Tiers {
				p.Cascade.Tiers[j].CPU = 0
			}
			p.Cascade.Certificates = nil
			p.Cascade.Violations = nil
		}
	}
}

func TestParallelDeterminism(t *testing.T) {
	suites := []struct {
		path      string
		cascade   bool
		contracts string
	}{
		{"testdata/airbus/airbus.c", true, ""},
		{"testdata/fixwrites/fixwrites.c", true, ""},
		{"testdata/running/skipline.c", true, ""},
		{"testdata/running/skipline.c", false, ""},
	}
	for _, s := range suites {
		t.Run(fmt.Sprintf("%s/cascade=%v/contracts=%s", s.path, s.cascade, s.contracts), func(t *testing.T) {
			seq, err := AnalyzeFile(s.path, Config{Workers: 1, Cascade: s.cascade, Contracts: s.contracts})
			if err != nil {
				t.Fatal(err)
			}
			par, err := AnalyzeFile(s.path, Config{Workers: 8, Cascade: s.cascade, Contracts: s.contracts})
			if err != nil {
				t.Fatal(err)
			}
			if par.Stats.Workers == 1 {
				t.Errorf("parallel run used 1 worker")
			}
			stripTimings(seq)
			stripTimings(par)
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("Workers=1 and Workers=8 reports differ\nseq: %+v\npar: %+v", seq, par)
			}
		})
	}
}

// TestParallelDeterminismAutoContracts covers the contract-derivation path
// (§4) under concurrent workers: derive.Derive runs whole sub-pipelines
// against the same shared program. Split from TestParallelDeterminism
// because derivation dominates the cost (~2 orders of magnitude above a
// manual-contract run), letting CI target the cheap cases separately.
func TestParallelDeterminismAutoContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("contract derivation is expensive; skipped under -short")
	}
	cfg := Config{Cascade: true, Contracts: "auto"}
	cfg.Workers = 1
	seq, err := AnalyzeFile("testdata/running/skipline.c", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := AnalyzeFile("testdata/running/skipline.c", cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripTimings(seq)
	stripTimings(par)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("auto-contract reports differ between Workers=1 and Workers=8\nseq: %+v\npar: %+v", seq, par)
	}
}

const errPathSrc = `
void a(char *s) requires (is_nullt(s)) { s[0] = 'x'; }
void b(char *s) requires (is_nullt(s)) { s[0] = 'x'; }
void c(char *s) requires (is_nullt(s)) { s[0] = 'x'; }
void d(char *s) requires (is_nullt(s)) { s[0] = 'x'; }
void e(char *s) requires (is_nullt(s)) { s[0] = 'x'; }
void f(char *s) requires (is_nullt(s)) { s[0] = 'x'; }
`

func TestParallelErrorPath(t *testing.T) {
	// A procedure that fails mid-pool must return the same wrapped
	// "<proc>: ..." error as sequential mode (here: a requested procedure
	// with no definition, which fails after the inlining phase).
	procs := []string{"a", "b", "nosuch", "c", "d", "e", "f"}
	want := "nosuch: procedure not found or has no body"
	for _, workers := range []int{1, 8} {
		_, err := Analyze("t.c", errPathSrc, Config{Workers: workers, Procedures: procs})
		if err == nil || err.Error() != want {
			t.Errorf("Workers=%d: err = %v, want %q", workers, err, want)
		}
	}
}

func TestWorkersValidation(t *testing.T) {
	if _, err := Analyze("t.c", "void f(void) {}", Config{Workers: -1}); err == nil {
		t.Fatal("Workers=-1 accepted, want error")
	}
}

func TestLibcPreludeImmutable(t *testing.T) {
	pre, err := libc.Prelude()
	if err != nil {
		t.Fatal(err)
	}
	before := cast.Fprint(pre.File())
	// Analyze a program that leans on the shared contract models, and one
	// that redeclares a modeled function with its own body.
	if _, err := Analyze("t.c", `
void f(char *dst, char *src)
    requires (is_nullt(src) && alloc(dst) > strlen(src))
    modifies (dst)
{ strcpy(dst, src); }
`, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze("t.c", `
int strlen(char *s) requires (is_nullt(s)) { return 0; }
`, Config{Procedures: []string{"strlen"}}); err != nil {
		t.Fatal(err)
	}
	if after := cast.Fprint(pre.File()); after != before {
		t.Errorf("shared libc prelude AST was mutated by analysis runs")
	}
}
