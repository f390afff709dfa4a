package core

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
)

// panicDomain is a fault-injection domain: every state construction
// panics, simulating an internal analyzer bug inside one procedure's
// pipeline. WithSubstrate leaves unknown domains untouched, so the
// injected fault survives the per-run substrate configuration.
type panicDomain struct{ analysis.PolyDomain }

func (panicDomain) Name() string { return "panic-inject" }

func (panicDomain) Universe(n int) analysis.State {
	panic("injected fault: universe constructor exploded")
}

const faultSrc = `
char buf[8];
void alpha(void) { buf[0] = 'a'; }
void beta(void)  { buf[1] = 'b'; }
void gamma(void) { buf[2] = 'c'; }
`

// faultStrip projects a report onto its deterministic fields: timing
// (CPU, Space, tier CPU), scheduler-dependent data (panic stacks) and
// derived heavyweight structures are removed so reports from different
// worker counts can be compared with reflect.DeepEqual.
func faultStrip(rep *Report) []ProcReport {
	out := make([]ProcReport, len(rep.Procs))
	for i, p := range rep.Procs {
		p.CPU, p.Space = 0, 0
		p.IP, p.Derived = nil, nil
		p.Certification = nil
		if p.Degraded != nil {
			d := *p.Degraded
			d.Stack = ""
			p.Degraded = &d
		}
		if p.Cascade != nil {
			c := *p.Cascade
			c.Tiers = append([]analysis.TierStat(nil), c.Tiers...)
			for j := range c.Tiers {
				c.Tiers[j].CPU = 0
			}
			c.Certificates = nil
			c.Residual = nil
			p.Cascade = &c
		}
		out[i] = p
	}
	return out
}

func readAirbus(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/airbus/airbus.c")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestFaultPanicIsolation: a panic inside one procedure's analysis never
// crashes the run. Every affected procedure is reported degraded with an
// unresolved violation (never silently "safe"), and the report is
// identical for the sequential and the concurrent driver.
func TestFaultPanicIsolation(t *testing.T) {
	run := func(workers int) *Report {
		t.Helper()
		rep, err := AnalyzeSource("t.c", faultSrc, Options{
			Workers: workers,
			Domain:  panicDomain{},
		})
		if err != nil {
			t.Fatalf("workers=%d: run failed instead of isolating the panic: %v", workers, err)
		}
		return rep
	}
	seq := run(1)
	if len(seq.Procs) != 3 {
		t.Fatalf("got %d procs, want 3", len(seq.Procs))
	}
	for i := range seq.Procs {
		pr := &seq.Procs[i]
		if pr.Degraded == nil || pr.Degraded.Cause != "panic" {
			t.Fatalf("%s: Degraded = %+v, want cause panic", pr.Name, pr.Degraded)
		}
		if pr.Degraded.Stack == "" {
			t.Errorf("%s: panic diagnostic has no stack", pr.Name)
		}
		if !strings.Contains(pr.Degraded.Detail, "injected fault") {
			t.Errorf("%s: Detail = %q, want the panic value", pr.Name, pr.Degraded.Detail)
		}
		if len(pr.Violations) == 0 {
			t.Fatalf("%s: panicking procedure reported no violations (silently safe)", pr.Name)
		}
		v := pr.Violations[0]
		if !v.Unresolved || v.Index != -1 || !strings.Contains(v.Msg, "panic") {
			t.Errorf("%s: synthesized violation = %+v", pr.Name, v)
		}
	}
	if seq.Stats.DegradedProcs != 3 || seq.Stats.UnresolvedChecks != 3 {
		t.Errorf("Stats degraded=%d unresolved=%d, want 3/3",
			seq.Stats.DegradedProcs, seq.Stats.UnresolvedChecks)
	}
	par := run(8)
	if !reflect.DeepEqual(faultStrip(seq), faultStrip(par)) {
		t.Errorf("panic reports differ between workers 1 and 8:\n%+v\nvs\n%+v",
			faultStrip(seq), faultStrip(par))
	}
}

// TestFaultStepBudgetDeterministic: step-budget exhaustion is fully
// deterministic — the same tiny budget produces byte-identical degraded
// reports for workers 1 and 8, and every degraded procedure's checks are
// unresolved, not silently dropped.
func TestFaultStepBudgetDeterministic(t *testing.T) {
	src := readAirbus(t)
	run := func(workers int) *Report {
		t.Helper()
		rep, err := AnalyzeSource("airbus.c", src, Options{
			Workers:    workers,
			StepBudget: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := run(1)
	for i := range seq.Procs {
		pr := &seq.Procs[i]
		if pr.Degraded == nil || pr.Degraded.Cause != "step-budget" {
			t.Fatalf("%s: Degraded = %+v, want cause step-budget", pr.Name, pr.Degraded)
		}
		unresolved := 0
		for _, v := range pr.Violations {
			if v.Unresolved {
				unresolved++
			}
		}
		if unresolved == 0 {
			t.Errorf("%s: degraded but no unresolved violations", pr.Name)
		}
		if unresolved != pr.Degraded.Unresolved {
			t.Errorf("%s: Degraded.Unresolved = %d, %d unresolved violations",
				pr.Name, pr.Degraded.Unresolved, unresolved)
		}
	}
	if seq.Stats.DegradedProcs != len(seq.Procs) {
		t.Errorf("DegradedProcs = %d, want %d", seq.Stats.DegradedProcs, len(seq.Procs))
	}
	par := run(8)
	if !reflect.DeepEqual(faultStrip(seq), faultStrip(par)) {
		t.Errorf("step-budget reports differ between workers 1 and 8")
	}
}

// TestFaultDeadlineExpired: an already-expired wall-clock deadline (the
// deterministic limit case of a timeout) degrades every procedure at its
// first budget poll; the run completes and is worker-count independent.
func TestFaultDeadlineExpired(t *testing.T) {
	src := readAirbus(t)
	run := func(workers int) *Report {
		t.Helper()
		rep, err := AnalyzeSource("airbus.c", src, Options{
			Workers:      workers,
			ProcDeadline: time.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := run(1)
	for i := range seq.Procs {
		pr := &seq.Procs[i]
		if pr.Degraded == nil || pr.Degraded.Cause != "deadline" {
			t.Fatalf("%s: Degraded = %+v, want cause deadline", pr.Name, pr.Degraded)
		}
	}
	par := run(8)
	if !reflect.DeepEqual(faultStrip(seq), faultStrip(par)) {
		t.Errorf("deadline reports differ between workers 1 and 8")
	}
}

// TestFaultDeadlineMillisecond: a realistic 1ms deadline — some
// procedures may finish under it, others not — always completes without
// crashing, and whatever degrades is reported unresolved.
func TestFaultDeadlineMillisecond(t *testing.T) {
	rep, err := AnalyzeSource("airbus.c", readAirbus(t), Options{
		Workers:      8,
		ProcDeadline: time.Millisecond,
		Cascade:      true,
	})
	if err != nil {
		t.Fatalf("1ms-deadline run failed: %v", err)
	}
	for i := range rep.Procs {
		pr := &rep.Procs[i]
		if pr.Degraded == nil {
			continue
		}
		if pr.Degraded.Cause != "deadline" {
			t.Errorf("%s: Cause = %q, want deadline", pr.Name, pr.Degraded.Cause)
		}
		unresolved := 0
		for _, v := range pr.Violations {
			if v.Unresolved {
				unresolved++
			}
		}
		if unresolved != pr.Degraded.Unresolved {
			t.Errorf("%s: Degraded.Unresolved = %d, %d unresolved violations",
				pr.Name, pr.Degraded.Unresolved, unresolved)
		}
	}
}

// TestFaultDegradationSound: degradation only converts verdicts to
// "unresolved" — it never flips a violated check to safe. Every
// violation of the full-budget run appears in the budgeted run either as
// the same violation or as an unresolved one.
func TestFaultDegradationSound(t *testing.T) {
	src := readAirbus(t)
	full, err := AnalyzeSource("airbus.c", src, Options{Workers: 1, Cascade: true})
	if err != nil {
		t.Fatal(err)
	}
	// A budget between the cheapest and the costliest procedure degrades
	// some procedures and leaves others to complete exactly as in the
	// full run; deriving it from the full run keeps the test robust.
	lo, hi := int(^uint(0)>>1), 0
	for i := range full.Procs {
		if it := full.Procs[i].Iterations; it > 0 {
			if it < lo {
				lo = it
			}
			if it > hi {
				hi = it
			}
		}
	}
	budget := (lo + hi) / 2
	if budget <= lo {
		t.Skipf("iteration counts too uniform (lo=%d hi=%d)", lo, hi)
	}
	capped, err := AnalyzeSource("airbus.c", src, Options{
		Workers: 1, Cascade: true, StepBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := func(v analysis.Violation) string { return v.Pos.String() + "|" + v.Msg }
	degraded := 0
	for i := range full.Procs {
		fp, cp := &full.Procs[i], &capped.Procs[i]
		if fp.Name != cp.Name {
			t.Fatalf("procedure order differs: %s vs %s", fp.Name, cp.Name)
		}
		if cp.Degraded != nil {
			degraded++
		} else if !reflect.DeepEqual(faultStrip(full)[i], faultStrip(capped)[i]) {
			t.Errorf("%s: not degraded but differs from the full run", fp.Name)
		}
		reported := map[string]bool{}
		for _, v := range cp.Violations {
			reported[key(v)] = true
		}
		for _, v := range fp.Violations {
			if !reported[key(v)] {
				t.Errorf("%s: full-run violation %q vanished under a budget (unsound)",
					fp.Name, key(v))
			}
		}
	}
	if degraded == 0 {
		t.Errorf("budget %d (lo=%d hi=%d) degraded no procedure; test exercised nothing",
			budget, lo, hi)
	}
}
