package analysis

import (
	"time"

	"repro/internal/certify"
	"repro/internal/clex"
	"repro/internal/ip"
	"repro/internal/reduce"
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
	// Residual is the sliced sub-program the final tier analyzed (nil
	// when the cheap tiers discharged everything); ResidualVars and
	// ResidualStmts are its dimensions.
	Residual      *ip.Program
	ResidualVars  int
	ResidualStmts int
	// Certificates carries, under Options.Certify, one certificate per
	// discharged check: the discharging tier's per-point invariant systems
	// over its sliced sub-program (true at the points from which none of
	// the tier's discharged checks can be reached), with statement indices
	// mapped back to the original program, ready for the independent
	// Fourier–Motzkin verifier (certify.Certificate.Verify). Checks
	// removed by CFG pruning get an unreachability certificate over the
	// original program.
	Certificates []*certify.Certificate
	// Exhausted names the budget that ran out mid-cascade, or is empty.
	// Checks still residual at that point are reported as unresolved
	// violations (provenance tier "unresolved"); checks already
	// discharged by completed cheaper tiers keep their verdicts — those
	// tiers ran to a sound fixpoint.
	Exhausted string
}

// AnalyzeCascade runs the tiered check discharge of the reduction design:
// the IP is pruned of unreachable nodes, then analyzed by the interval
// domain first, the zone domain second, and the configured final domain
// (polyhedra by default) last. Each tier sees only the backward slice of
// the asserts every cheaper tier failed to prove, with constant/copy
// propagation additionally applied in the cheap tiers. Soundness: every
// tier is sound and every reduction over-approximates, so a check
// discharged early truly holds; precision: the final domain remains the
// authority on the residual checks, which it analyzes without propagation
// so that messages and counter-examples match a plain Analyze run.
//
// When the procedure budget (Options.Token) runs out, the tier in
// progress is discarded and every still-residual check is reported
// unresolved; checks discharged by the completed cheaper tiers keep their
// verdicts.
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
	var tiers []Domain
	for _, d := range []Domain{IntervalDomain{}, ZoneDomain{Config: opts.ZoneConfig}} {
		if d.Name() != final.Name() {
			tiers = append(tiers, d)
		}
	}
	tiers = append(tiers, final)

	out := &CascadeResult{}
	decided := map[int]CheckProvenance{} // keyed by pruned-program index
	residual := pruned.Asserts()
	var cause string // procedure-budget exhaustion
	for _, dom := range tiers {
		if len(residual) == 0 {
			break
		}
		if opts.Token.Exhausted() {
			cause = opts.Token.Cause()
			break
		}
		tierName := dom.Name()
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
		start := time.Now()
		res, err := Analyze(sliced, Options{
			Domain:          dom,
			NarrowingPasses: opts.NarrowingPasses,
			CheckOnly:       checkOnly,
			Token:           opts.Token,
		})
		if err != nil {
			return nil, err
		}
		if res.Exhausted != "" {
			// The aborted tier's partial work (including its iteration
			// count, which depends on where the deadline landed) is
			// discarded; everything still residual becomes unresolved.
			cause = res.Exhausted
			break
		}
		cpu := time.Since(start)
		out.Iterations += res.Iterations

		violated := map[int]bool{}
		for _, v := range res.Violations {
			violated[v.Index] = true
		}
		var next, discharged []int
		for _, a := range residual {
			if violated[sm.StmtOf[a]] {
				next = append(next, a)
				continue
			}
			discharged = append(discharged, a)
			ast := pruned.Stmts[a].(*ip.Assert)
			decided[a] = CheckProvenance{
				Index: pm[a], Pos: ast.Pos, Msg: ast.Msg,
				Tier: tierName, Vars: sliced.NumVars(), Stmts: sliced.Size(),
			}
		}
		if opts.Certify && len(discharged) > 0 {
			out.Certificates = append(out.Certificates,
				tierCertificates(tierName, pruned, pm, sliced, sm, res.States, discharged)...)
		}
		out.Tiers = append(out.Tiers, TierStat{
			Domain:     tierName,
			Vars:       sliced.NumVars(),
			Stmts:      sliced.Size(),
			Asserts:    len(residual),
			Discharged: len(discharged),
			Iterations: res.Iterations,
			CPU:        cpu,
		})
		if isFinal {
			out.Residual = sliced
			out.ResidualVars = sliced.NumVars()
			out.ResidualStmts = sliced.Size()
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
		// Conservatively report the still-residual checks; checks already
		// discharged by completed tiers keep their verdicts.
		out.Exhausted = cause
		for _, a := range residual {
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
	assembleChecks(p, pm, decided, opts.Certify, out)
	return out, nil
}

// tierCertificates certifies the checks one tier discharged (indices into
// the pruned program). They share one payload: the tier's invariants over
// its sliced sub-program, exported where a discharged check can be
// reached, with statement indices mapped back to the original program.
func tierCertificates(tier string, pruned *ip.Program, pm reduce.StmtMap, sliced *ip.Program, sm *reduce.SliceMap, states []State, discharged []int) []*certify.Certificate {
	carrier := make([]int, len(discharged))
	for i, a := range discharged {
		carrier[i] = sm.StmtOf[a]
	}
	inv := certifiedInvariants(sliced, states, carrier)
	orig := sm.Stmt.Compose(pm)
	names := sliced.Space.Names()
	certs := make([]*certify.Certificate, len(discharged))
	for i, a := range discharged {
		ast := pruned.Stmts[a].(*ip.Assert)
		certs[i] = &certify.Certificate{
			Check: certify.Check{
				OrigIndex: pm[a], Pos: ast.Pos, Msg: ast.Msg,
				Tier: tier,
			},
			Prog:      sliced,
			AssertIdx: carrier[i],
			Inv:       inv,
			OrigStmt:  orig,
			VarNames:  names,
		}
	}
	return certs
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
