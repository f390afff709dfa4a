package analysis

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/reduce"
	"repro/internal/schedule"
)

// TestScheduledColdAdaptiveMatchesFixed: an adaptive planner over an
// empty profile hands every check the fixed plan, so its per-check plan
// groups run the same tiers in the same order as the fixed cascade's one
// group, and must reproduce its violations and provenance exactly. Only
// the adaptive run records scheduling decisions.
func TestScheduledColdAdaptiveMatchesFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		p := genIP(rng)
		fixed, err := AnalyzeCascade(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: fixed: %v", trial, err)
		}
		if fixed.Sched != nil {
			t.Errorf("trial %d: fixed cascade recorded scheduling decisions: %+v", trial, fixed.Sched)
		}
		cold, err := AnalyzeCascade(p, Options{Planner: schedule.NewPlanner(schedule.Adaptive, nil)})
		if err != nil {
			t.Fatalf("trial %d: adaptive: %v", trial, err)
		}
		if !reflect.DeepEqual(cold.Violations, fixed.Violations) {
			t.Errorf("trial %d: violations differ\nfixed:    %+v\nadaptive: %+v",
				trial, fixed.Violations, cold.Violations)
		}
		if !reflect.DeepEqual(cold.Checks, fixed.Checks) {
			t.Errorf("trial %d: provenance differs\nfixed:    %+v\nadaptive: %+v",
				trial, fixed.Checks, cold.Checks)
		}
		if len(p.Asserts()) > 0 && len(cold.Sched) == 0 {
			t.Errorf("trial %d: adaptive run recorded no scheduling decisions", trial)
		}
	}
}

// TestScheduledTrainedProfileKeepsVerdicts: a profile recorded from one
// adaptive run must not change any verdict when it steers the next run —
// scheduling moves cost, never truth.
func TestScheduledTrainedProfileKeepsVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		p := genIP(rng)
		legacy, err := AnalyzeCascade(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rec := schedule.NewRecorder()
		warm := schedule.NewPlanner(schedule.Adaptive, nil)
		if _, err := AnalyzeCascade(p, Options{Planner: warm, Recorder: rec}); err != nil {
			t.Fatalf("trial %d: warmup: %v", trial, err)
		}
		// Replay the recording a few times so tiers cross the minAttempts
		// threshold and the planner actually changes the plan.
		prof := schedule.NewProfile()
		for i := 0; i < 8; i++ {
			prof.Merge(rec.Profile())
		}
		trained := schedule.NewPlanner(schedule.Adaptive, prof)
		got, err := AnalyzeCascade(p, Options{Planner: trained})
		if err != nil {
			t.Fatalf("trial %d: trained: %v", trial, err)
		}
		verdicts := func(r *CascadeResult) map[int]bool {
			m := map[int]bool{}
			for _, c := range r.Checks {
				m[c.Index] = c.Violated
			}
			return m
		}
		if !reflect.DeepEqual(verdicts(got), verdicts(legacy)) {
			t.Errorf("trial %d: trained profile changed verdicts\nlegacy: %+v\ntrained: %+v",
				trial, legacy.Checks, got.Checks)
		}
	}
}

// TestEngineTierBudget: a tripped TierToken yields the distinguished
// tier-budget cause, not the procedure-budget causes.
func TestEngineTierBudget(t *testing.T) {
	p := buildLoop(false)
	res, err := Analyze(p, Options{TierToken: budget.New(time.Time{}, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != TierBudgetExhausted {
		t.Fatalf("Exhausted = %q, want %q", res.Exhausted, TierBudgetExhausted)
	}
	for _, v := range res.Violations {
		if !v.Unresolved {
			t.Errorf("tier-exhausted violation not unresolved: %+v", v)
		}
	}
	// The procedure token stays authoritative: when both trip, the
	// procedure cause wins (it is checked first).
	res, err = Analyze(p, Options{
		Token:     budget.New(time.Time{}, 1),
		TierToken: budget.New(time.Time{}, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != budget.CauseSteps {
		t.Fatalf("Exhausted = %q, want %q", res.Exhausted, budget.CauseSteps)
	}
}

// TestScheduledTierBudgetFallsThrough: a tier that overruns its scheduled
// step budget is skipped for its group — the check falls through to the
// next tier and is still decided, never reported unresolved.
func TestScheduledTierBudgetFallsThrough(t *testing.T) {
	// A loop whose body is long enough that the interval fixpoint needs
	// well over 64 worklist steps (the minimum tier budget) on the
	// check's slice.
	p := ip.New("wide-loop")
	x := p.Space.Var("x")
	n := p.Space.Var("n")
	p.Emit(&ip.Havoc{V: n})
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&ip.Label{Name: "head"})
	cond := linear.VarExpr(x).Sub(linear.VarExpr(n))
	p.Emit(&ip.IfGoto{C: ip.Single(linear.NewGe(cond)), Target: "end"})
	for i := 0; i < 80; i++ {
		inc := linear.VarExpr(x)
		inc.AddConst(1)
		p.Emit(&ip.Assign{V: x, E: inc})
	}
	p.Emit(&ip.Goto{Target: "head"})
	p.Emit(&ip.Label{Name: "end"})
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(linear.VarExpr(x))), Msg: "write through p"})

	// Recompute the check's features exactly as planGroups does,
	// and record a profile that hands the interval tier the minimum
	// budget (64 steps): cheap mean cost, many successes.
	pruned, _, err := reduce.PruneUnreachable(p)
	if err != nil {
		t.Fatal(err)
	}
	propagated, err := reduce.Propagate(pruned)
	if err != nil {
		t.Fatal(err)
	}
	asserts := pruned.Asserts()
	if len(asserts) != 1 {
		t.Fatalf("%d asserts, want 1", len(asserts))
	}
	sliced, _, err := reduce.Slice(propagated, []int{asserts[0]})
	if err != nil {
		t.Fatal(err)
	}
	f := schedule.Features{
		Kind:  schedule.ClassifyKind("write through p"),
		Vars:  sliced.NumVars(),
		Stmts: sliced.Size(),
		Loops: backEdgeCount(sliced),
	}
	if sliced.Size() < 70 {
		t.Fatalf("slice kept only %d stmts; too small to overrun the minimum tier budget", sliced.Size())
	}
	prof := schedule.NewProfile()
	prof.Record(f, "interval", 10, 10, 100) // mean cost 10 -> budget max(64, 40) = 64

	planner := schedule.NewPlanner(schedule.Adaptive, prof)
	res, err := AnalyzeCascade(p, Options{Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != "" {
		t.Fatalf("cascade exhausted (%q); tier budgets must never exhaust the run", res.Exhausted)
	}
	var sawInterval bool
	for _, ts := range res.Tiers {
		if ts.Domain == "interval" {
			sawInterval = true
			if ts.Discharged != 0 {
				t.Errorf("budgeted interval tier discharged %d; expected the budget to cut it short", ts.Discharged)
			}
		}
	}
	if !sawInterval {
		t.Error("interval tier never attempted; expected a budgeted attempt")
	}
	if len(res.Checks) != 1 {
		t.Fatalf("%d provenance records, want 1", len(res.Checks))
	}
	c := res.Checks[0]
	if c.Tier == "unresolved" || c.Tier == "interval" {
		t.Errorf("check decided by %q; want a fall-through to a later tier", c.Tier)
	}
	if c.Violated {
		t.Errorf("x >= 0 reported violated: %+v", c)
	}
}
