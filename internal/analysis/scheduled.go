package analysis

import (
	"repro/internal/ip"
	"repro/internal/reduce"
	"repro/internal/schedule"
)

// A planGroup is a set of checks the cascade runs under one plan.
type planGroup struct {
	plan   schedule.Plan
	checks []int // pruned-program assert indices, ascending
}

// planGroups splits the pruned program's checks into plan groups over the
// cascade's tier names (cheapest first, final last). Without an adaptive
// planner every check lands in one group under schedule.FixedPlan, and no
// features are computed (feats is nil). With one, each check gets its own
// backward slice first, from which static Features (kind, slice
// dimensions, loop count) are computed and mapped to a Plan; checks
// sharing a plan are grouped so each tier still runs once per group, not
// once per check. Group order follows the first member's assert index, so
// the whole schedule is a pure function of the program + profile.
func planGroups(planner *schedule.Planner, pruned, propagated *ip.Program, tiers []string) ([]*planGroup, map[int]schedule.Features, error) {
	if planner == nil || planner.Mode() == schedule.Off {
		return []*planGroup{{plan: schedule.FixedPlan(tiers), checks: pruned.Asserts()}}, nil, nil
	}
	feats := map[int]schedule.Features{}
	byKey := map[string]*planGroup{}
	var groups []*planGroup
	for _, a := range pruned.Asserts() {
		sliced, _, err := reduce.Slice(propagated, []int{a})
		if err != nil {
			return nil, nil, err
		}
		ast := pruned.Stmts[a].(*ip.Assert)
		f := schedule.Features{
			Kind:  schedule.ClassifyKind(ast.Msg),
			Vars:  sliced.NumVars(),
			Stmts: sliced.Size(),
			Loops: backEdgeCount(sliced),
		}
		feats[a] = f
		plan := planner.Plan(f, tiers)
		key := plan.Key()
		g := byKey[key]
		if g == nil {
			g = &planGroup{plan: plan}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.checks = append(g.checks, a)
	}
	return groups, feats, nil
}

// recordOutcomes attributes one tier run over a group to the per-check
// feature buckets: one attempt per entering check, a discharge where the
// tier proved it, and an even share of the run's worklist steps. The
// split is deterministic, so merged profiles are identical across worker
// counts. Nothing is recorded for the fixed cascade (nil feats).
func recordOutcomes(r *schedule.Recorder, feats map[int]schedule.Features, entering []int, tier string, discharged map[int]bool, iterations int) {
	if r == nil || feats == nil || len(entering) == 0 {
		return
	}
	share := iterations / len(entering)
	for _, a := range entering {
		d := 0
		if discharged[a] {
			d = 1
		}
		r.Record(feats[a], tier, 1, d, share)
	}
}

// backEdgeCount counts backward control-flow edges — the loops the
// fixpoint will have to widen through — in a (sliced) program.
func backEdgeCount(p *ip.Program) int {
	if err := p.Resolve(); err != nil {
		return 0
	}
	n := 0
	for i, edges := range p.CFG() {
		for _, e := range edges {
			if e.To <= i {
				n++
			}
		}
	}
	return n
}

// origIndices maps pruned-program assert indices to original-program
// indices for the Decision record.
func origIndices(checks []int, pm reduce.StmtMap) []int {
	out := make([]int, len(checks))
	for i, a := range checks {
		out[i] = pm[a]
	}
	return out
}
