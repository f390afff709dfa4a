package analysis

import (
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/certify"
	"repro/internal/clex"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/reduce"
	"repro/internal/schedule"
)

// TierStat reports one tier of the cascade.
type TierStat struct {
	// Domain is the tier's abstract domain name.
	Domain string
	// Vars and Stmts measure the sliced sub-program the tier analyzed.
	Vars, Stmts int
	// Asserts is the number of residual checks entering the tier;
	// Discharged how many the tier proved.
	Asserts, Discharged int
	// Iterations and CPU are the tier's fixpoint cost.
	Iterations int
	CPU        time.Duration
}

// CheckProvenance records, for one assert, which tier decided it and on
// how small a sub-program.
type CheckProvenance struct {
	// Index is the statement index in the analyzed (original) program.
	Index int
	Pos   clex.Pos
	Msg   string
	// Tier is the domain that discharged the check, or the final domain
	// when Violated.
	Tier string
	// Violated marks checks the final tier could not prove (reported as
	// messages).
	Violated bool
	// Vars and Stmts are the dimensions of the sliced sub-program in which
	// the check was decided.
	Vars, Stmts int
}

// CascadeResult is the outcome of a tiered analysis.
type CascadeResult struct {
	// Violations is the final message set, with indices relative to the
	// original program. StateSystem and counter-examples are computed in
	// the residual slice; counter-example variables keep their original
	// names.
	Violations []Violation
	// Iterations sums the worklist steps of every tier.
	Iterations int
	// Tiers describes each tier that ran, cheapest first.
	Tiers []TierStat
	// Checks records per-assert provenance in program order.
	Checks []CheckProvenance
	// Residual is the sliced sub-program the final tier analyzed (the
	// largest one when plan groups reached it separately; nil when the
	// cheap tiers discharged everything); ResidualVars/ResidualStmts are
	// its dimensions.
	Residual      *ip.Program
	ResidualVars  int
	ResidualStmts int
	// Certificates carries, under Options.Certify, one certificate per
	// discharged check: the discharging tier's per-point invariant systems
	// over its sliced sub-program, with statement indices mapped back to
	// the original program, ready for the independent Fourier–Motzkin
	// verifier (certify.Certificate.Verify). Checks removed by CFG pruning
	// get an unreachability certificate over the original program.
	Certificates []*certify.Certificate
	// Exhausted names the budget that ran out mid-cascade, or is empty.
	// Checks still residual at that point are reported as unresolved
	// violations (provenance tier "unresolved"); checks already
	// discharged by completed cheaper tiers keep their verdicts — those
	// tiers ran to a sound fixpoint.
	Exhausted string
	// Sched records the plans the adaptive scheduler applied, one per
	// group of checks sharing a plan (nil when the fixed cascade ran).
	Sched []schedule.Decision
}

// AnalyzeCascade runs the tiered check discharge of the reduction design:
// the IP is pruned of unreachable nodes, then analyzed by the interval
// domain first, the zone domain second, the octagon domain third (when
// Options.Octagon is set), and the configured final domain (polyhedra by
// default) last. Each tier sees only the backward slice of
// the asserts every cheaper tier failed to prove, with constant/copy
// propagation additionally applied in the cheap tiers. Soundness: every
// tier is sound and every reduction over-approximates, so a check
// discharged early truly holds; precision: the final domain remains the
// authority on the residual checks, which it analyzes without propagation
// so that messages and counter-examples match a plain Analyze run.
//
// The checks are split into groups that share a schedule.Plan (see
// planGroups); each tier of a group's plan runs once over the group's
// residual checks. Without an adaptive Options.Planner there is one group
// under the fixed, unbudgeted plan. A tier whose scheduled step budget
// runs out is skipped for its group: its checks fall through to the next
// tier, and the final tier is always last and never budgeted, so
// scheduling moves cost around but never turns a provable check into a
// report.
func AnalyzeCascade(p *ip.Program, opts Options) (*CascadeResult, error) {
	opts.fill()
	if err := p.Resolve(); err != nil {
		return nil, err
	}
	pruned, pm, err := reduce.PruneUnreachable(p)
	if err != nil {
		return nil, err
	}
	propagated, err := reduce.Propagate(pruned)
	if err != nil {
		return nil, err
	}

	final := opts.Domain
	cheap := []Domain{IntervalDomain{}, ZoneDomain{Config: opts.ZoneConfig}}
	if opts.Octagon {
		cheap = append(cheap, OctagonDomain{Config: opts.ZoneConfig})
	}
	domOf := map[string]Domain{final.Name(): final}
	var names []string
	for _, d := range cheap {
		if d.Name() != final.Name() {
			domOf[d.Name()] = d
			names = append(names, d.Name())
		}
	}
	names = append(names, final.Name())

	groups, feats, err := planGroups(opts.Planner, pruned, propagated, names)
	if err != nil {
		return nil, err
	}

	out := &CascadeResult{}
	decided := map[int]CheckProvenance{} // keyed by pruned-program index
	// markUnresolved conservatively reports the given still-residual
	// checks once the procedure budget is exhausted; checks already
	// discharged by completed tiers keep their verdicts.
	markUnresolved := func(cause string, checks []int) {
		out.Exhausted = cause
		for _, a := range checks {
			ast := pruned.Stmts[a].(*ip.Assert)
			decided[a] = CheckProvenance{
				Index: pm[a], Pos: ast.Pos, Msg: ast.Msg,
				Tier: "unresolved", Violated: true,
			}
			out.Violations = append(out.Violations, Violation{
				Index: pm[a], Msg: ast.Msg, Pos: ast.Pos, Unresolved: true,
			})
		}
	}

	var cause string // procedure-budget exhaustion, latched across groups
	for _, g := range groups {
		if feats != nil {
			out.Sched = append(out.Sched, schedule.Decision{
				Checks:  origIndices(g.checks, pm),
				Order:   g.plan.Order,
				Budgets: g.plan.Budgets,
				Source:  g.plan.Source,
			})
		}
		residual := g.checks
		if cause != "" {
			markUnresolved(cause, residual)
			continue
		}
		for ti, tierName := range g.plan.Order {
			if len(residual) == 0 {
				break
			}
			if opts.Token.Exhausted() {
				cause = opts.Token.Cause()
				break
			}
			dom := domOf[tierName]
			isFinal := tierName == final.Name()
			base := propagated
			if isFinal {
				base = pruned
			}
			sliced, sm, err := reduce.Slice(base, residual)
			if err != nil {
				return nil, err
			}
			checkOnly := map[int]bool{}
			for _, a := range residual {
				checkOnly[sm.StmtOf[a]] = true
			}
			var tierTok *budget.Token
			if g.plan.Budgets[ti] > 0 && !isFinal {
				tierTok = budget.New(time.Time{}, g.plan.Budgets[ti])
			}
			start := time.Now()
			res, err := Analyze(sliced, Options{
				Domain:          dom,
				WideningDelay:   opts.WideningDelay,
				NarrowingPasses: opts.NarrowingPasses,
				CheckOnly:       checkOnly,
				Token:           opts.Token,
				TierToken:       tierTok,
			})
			if err != nil {
				return nil, err
			}
			tier := TierStat{
				Domain:     tierName,
				Vars:       sliced.NumVars(),
				Stmts:      sliced.Size(),
				Asserts:    len(residual),
				Iterations: res.Iterations,
			}
			if res.Exhausted == TierBudgetExhausted {
				// The tier overran its scheduled step budget: skip it for
				// this group, the checks fall through to the next tier.
				// Unlike a deadline, the cut point is a deterministic step
				// count, so the spent iterations still count toward the
				// stats and the profile (as attempts with no discharge).
				tier.CPU = time.Since(start)
				out.Iterations += res.Iterations
				out.Tiers = append(out.Tiers, tier)
				recordOutcomes(opts.Recorder, feats, residual, tierName, nil, res.Iterations)
				continue
			}
			if res.Exhausted != "" {
				// Procedure budget: the aborted tier's partial work
				// (including its iteration count, which depends on where
				// the deadline landed) is discarded; everything still
				// residual becomes unresolved.
				cause = res.Exhausted
				break
			}
			tier.CPU = time.Since(start)
			out.Iterations += res.Iterations

			violated := map[int]bool{}
			for _, v := range res.Violations {
				violated[v.Index] = true
			}
			// Certificate payload, shared by every check this tier
			// discharged: the tier's per-point invariants over its sliced
			// sub-program, with statement indices mapped back to the
			// original program.
			var certInv []linear.System
			var certOrig []int
			var certNames []string
			if opts.Certify {
				certInv = invariantSystems(res.States)
				certOrig = make([]int, len(sm.Stmt))
				for i, mid := range sm.Stmt {
					certOrig[i] = pm[mid]
				}
				certNames = sliced.Space.Names()
			}
			discharged := map[int]bool{}
			var next []int
			for _, a := range residual {
				if violated[sm.StmtOf[a]] {
					next = append(next, a)
					continue
				}
				discharged[a] = true
				ast := pruned.Stmts[a].(*ip.Assert)
				decided[a] = CheckProvenance{
					Index: pm[a], Pos: ast.Pos, Msg: ast.Msg,
					Tier: tierName, Vars: sliced.NumVars(), Stmts: sliced.Size(),
				}
				if opts.Certify {
					out.Certificates = append(out.Certificates, &certify.Certificate{
						Check: certify.Check{
							OrigIndex: pm[a], Pos: ast.Pos, Msg: ast.Msg,
							Tier: tierName,
						},
						Prog:      sliced,
						AssertIdx: sm.StmtOf[a],
						Inv:       certInv,
						OrigStmt:  certOrig,
						VarNames:  certNames,
					})
				}
			}
			tier.Discharged = len(residual) - len(next)
			out.Tiers = append(out.Tiers, tier)
			recordOutcomes(opts.Recorder, feats, residual, tierName, discharged, res.Iterations)
			if isFinal {
				// Keep the largest final-tier slice for -dump-reduced-ip;
				// each group reaches the final tier in its own slice.
				if out.Residual == nil || sliced.Size() > out.ResidualStmts {
					out.Residual = sliced
					out.ResidualVars = sliced.NumVars()
					out.ResidualStmts = sliced.Size()
				}
				for _, v := range res.Violations {
					prunedIdx := sm.Stmt[v.Index]
					ast := pruned.Stmts[prunedIdx].(*ip.Assert)
					decided[prunedIdx] = CheckProvenance{
						Index: pm[prunedIdx], Pos: ast.Pos, Msg: ast.Msg,
						Tier: tierName, Violated: true,
						Vars: sliced.NumVars(), Stmts: sliced.Size(),
					}
					v.Index = pm[prunedIdx]
					out.Violations = append(out.Violations, v)
				}
			}
			residual = next
		}
		if cause != "" {
			markUnresolved(cause, residual)
		}
	}

	// Groups report out of program order; restore it. Each assert yields
	// at most one violation, so sorting by original index is total.
	sort.SliceStable(out.Violations, func(i, j int) bool {
		return out.Violations[i].Index < out.Violations[j].Index
	})
	assembleChecks(p, pm, decided, opts.Certify, out)
	return out, nil
}

// assembleChecks records per-assert provenance in program order;
// unreachable asserts (pruned away) are recorded as discharged by the
// pruning pass.
func assembleChecks(p *ip.Program, pm reduce.StmtMap, decided map[int]CheckProvenance, certifyOn bool, out *CascadeResult) {
	for _, idx := range p.Asserts() {
		found := false
		for pi, orig := range pm {
			if orig == idx {
				if prov, ok := decided[pi]; ok {
					out.Checks = append(out.Checks, prov)
				}
				found = true
				break
			}
		}
		if !found {
			ast := p.Stmts[idx].(*ip.Assert)
			out.Checks = append(out.Checks, CheckProvenance{
				Index: idx, Pos: ast.Pos, Msg: ast.Msg, Tier: "unreachable",
			})
			if certifyOn {
				// Pruning discharged the check as CFG-unreachable; the
				// verifier re-derives reachability on the original program.
				out.Certificates = append(out.Certificates, &certify.Certificate{
					Check: certify.Check{
						OrigIndex: idx, Pos: ast.Pos, Msg: ast.Msg,
						Tier: "unreachable",
					},
					Prog:        p,
					AssertIdx:   idx,
					Unreachable: true,
				})
			}
		}
	}
}
