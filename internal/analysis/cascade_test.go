package analysis

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/budget"
)

// TestCascadeSoundVsInterpreter: the tiered analysis must keep the engine's
// soundness guarantee — any assert a concrete execution violates is
// reported. Reductions only over-approximate, so this exercises the whole
// prune/propagate/slice stack against the interpreter oracle.
func TestCascadeSoundVsInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	violatedTotal := 0
	for trial := 0; trial < 60; trial++ {
		p := genIP(rng)
		concrete := map[int]bool{}
		for run := 0; run < 40; run++ {
			violated, _ := p.Exec(rng, 500)
			for _, idx := range violated {
				concrete[idx] = true
			}
		}
		if len(concrete) > 0 {
			violatedTotal++
		}
		res, err := AnalyzeCascade(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		reported := map[int]bool{}
		for _, v := range res.Violations {
			reported[v.Index] = true
		}
		for idx := range concrete {
			if !reported[idx] {
				t.Errorf("trial %d: UNSOUND: concrete violation at %d not reported by cascade\n%s",
					trial, idx, p.String())
			}
		}
	}
	if violatedTotal == 0 {
		t.Error("no generated program violated anything; test checks nothing")
	}
	t.Logf("%d/60 programs had concrete violations; cascade reported all of them", violatedTotal)
}

// TestCascadeProvenance: every assert of the input program gets exactly one
// provenance record, in program order, and the violated records line up
// with the reported violations.
func TestCascadeProvenance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	opts := Options{}
	opts.fill()
	allowed := map[string]bool{"unreachable": true, opts.Domain.Name(): true}
	for _, d := range []Domain{IntervalDomain{}, ZoneDomain{}} {
		allowed[d.Name()] = true
	}
	for trial := 0; trial < 40; trial++ {
		p := genIP(rng)
		res, err := AnalyzeCascade(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		asserts := p.Asserts()
		if len(res.Checks) != len(asserts) {
			t.Fatalf("trial %d: %d provenance records for %d asserts",
				trial, len(res.Checks), len(asserts))
		}
		violatedProv := map[int]bool{}
		for i, c := range res.Checks {
			if c.Index != asserts[i] {
				t.Errorf("trial %d: check %d records index %d, want %d (program order)",
					trial, i, c.Index, asserts[i])
			}
			if !allowed[c.Tier] {
				t.Errorf("trial %d: check %d decided by unknown tier %q", trial, i, c.Tier)
			}
			if c.Violated {
				violatedProv[c.Index] = true
			}
		}
		reported := map[int]bool{}
		for _, v := range res.Violations {
			reported[v.Index] = true
		}
		for idx := range reported {
			if !violatedProv[idx] {
				t.Errorf("trial %d: violation at %d has no violated provenance", trial, idx)
			}
		}
		for idx := range violatedProv {
			if !reported[idx] {
				t.Errorf("trial %d: provenance marks %d violated but no message reports it",
					trial, idx)
			}
		}
		// Residual checks can only shrink from tier to tier.
		prev := -1
		for ti, ts := range res.Tiers {
			if prev >= 0 && ts.Asserts > prev {
				t.Errorf("trial %d: tier %d enters with %d checks after a tier left %d",
					trial, ti, ts.Asserts, prev)
			}
			prev = ts.Asserts - ts.Discharged
			if ts.Vars > p.NumVars() || ts.Stmts > p.Size() {
				t.Errorf("trial %d: tier %d analyzed %dx%d, larger than the input %dx%d",
					trial, ti, ts.Vars, ts.Stmts, p.NumVars(), p.Size())
			}
		}
	}
}

// TestCascadeStepBudgetSweep pins the tier loop under every procedure
// step budget from 1 up to the unbudgeted run's iteration count: a budget
// only turns verdicts into "unresolved", never a violation into a
// discharge. Every unbudgeted violation appears unchanged or unresolved,
// every budgeted discharge is also an unbudgeted one, and Exhausted is set
// exactly when some check is unresolved.
func TestCascadeStepBudgetSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	exhaustedRuns := 0
	for trial := 0; trial < 30; trial++ {
		p := genIP(rng)
		full, err := AnalyzeCascade(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if full.Exhausted != "" {
			t.Fatalf("trial %d: unbudgeted run exhausted (%q)", trial, full.Exhausted)
		}
		fullDischarged := map[int]bool{}
		for _, c := range full.Checks {
			if !c.Violated {
				fullDischarged[c.Index] = true
			}
		}
		for n := 1; n <= full.Iterations; n++ {
			res, err := AnalyzeCascade(p, Options{Token: budget.New(time.Time{}, n)})
			if err != nil {
				t.Fatalf("trial %d budget %d: %v", trial, n, err)
			}
			byIndex := map[int]Violation{}
			for _, v := range res.Violations {
				byIndex[v.Index] = v
			}
			for _, v := range full.Violations {
				got, ok := byIndex[v.Index]
				if !ok || (!got.Unresolved && !reflect.DeepEqual(got, v)) {
					t.Errorf("trial %d budget %d: violation %d %q became %+v (present %v)",
						trial, n, v.Index, v.Msg, got, ok)
				}
			}
			unresolved := false
			for _, c := range res.Checks {
				if c.Tier == "unresolved" {
					unresolved = true
				} else if !c.Violated && !fullDischarged[c.Index] {
					t.Errorf("trial %d budget %d: check %d discharged by %s but violated unbudgeted",
						trial, n, c.Index, c.Tier)
				}
			}
			if (res.Exhausted != "") != unresolved {
				t.Errorf("trial %d budget %d: Exhausted = %q but unresolved checks = %v",
					trial, n, res.Exhausted, unresolved)
			}
			if res.Exhausted != "" {
				exhaustedRuns++
			}
		}
	}
	if exhaustedRuns == 0 {
		t.Error("no budget exhausted the cascade; the sweep exercised nothing")
	}
}
