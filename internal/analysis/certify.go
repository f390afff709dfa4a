package analysis

import (
	"repro/internal/certify"
	"repro/internal/ip"
	"repro/internal/linear"
)

// certifiedInvariants exports the invariant map shared by the certificates
// of the given asserts of the analyzed program p: the state's constraint
// system at every point from which one of them is reachable in p's CFG,
// and the empty (true) system everywhere else. Empty states export an
// unsatisfiable system (-1 >= 0), marking proven-unreachable points. With
// no asserts it returns nil and converts no state.
//
// The needed points are closed under predecessors, so the trivial
// invariants cost the checker nothing in soundness: every edge into a
// needed point leaves a needed point and keeps its real premise, and every
// edge into a trivial point has the true target, which any premise
// entails. The entry point is trivial either way.
func certifiedInvariants(p *ip.Program, states []State, asserts []int) []linear.System {
	if len(asserts) == 0 {
		return nil
	}
	cfg := p.CFG()
	preds := make([][]int, len(cfg))
	for i, succ := range cfg {
		for _, e := range succ {
			preds[e.To] = append(preds[e.To], i)
		}
	}
	// Backward reachability from the asserts; each point joins the queue
	// at most once.
	needed := make([]bool, len(cfg))
	queue := make([]int, 0, len(cfg))
	for _, a := range asserts {
		if !needed[a] {
			needed[a] = true
			queue = append(queue, a)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, q := range preds[queue[head]] {
			if !needed[q] {
				needed[q] = true
				queue = append(queue, q)
			}
		}
	}
	out := make([]linear.System, len(states))
	for _, i := range queue {
		out[i] = states[i].System()
	}
	return out
}

// certificates builds a certificate for every check a completed Analyze
// run discharged (reachable, verifiable asserts with no reported
// violation, restricted to opts.CheckOnly when set). The carrier program
// is the analyzed program itself, so the certificates carry no mapping and
// the reduction passes are not in the trust chain.
func certificates(res *Result, opts Options) []*certify.Certificate {
	violated := map[int]bool{}
	for _, v := range res.Violations {
		violated[v.Index] = true
	}
	var discharged []int
	for _, idx := range res.Prog.Asserts() {
		if opts.CheckOnly != nil && !opts.CheckOnly[idx] {
			continue
		}
		if violated[idx] {
			continue
		}
		if res.Prog.Stmts[idx].(*ip.Assert).Unverifiable {
			continue // always reported, never discharged; defensive
		}
		discharged = append(discharged, idx)
	}
	inv := certifiedInvariants(res.Prog, res.States, discharged)
	names := res.Prog.Space.Names()
	var certs []*certify.Certificate
	for _, idx := range discharged {
		a := res.Prog.Stmts[idx].(*ip.Assert)
		certs = append(certs, &certify.Certificate{
			Check: certify.Check{
				OrigIndex: idx, Pos: a.Pos, Msg: a.Msg,
				Tier: opts.Domain.Name(),
			},
			Prog:      res.Prog,
			AssertIdx: idx,
			Inv:       inv,
			VarNames:  names,
		})
	}
	return certs
}
