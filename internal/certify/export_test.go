package certify

import "repro/internal/ip"

// VerifyReference verifies every certificate on its own on the reference
// path: no compiled rows, no sharing between certificates. It is the
// oracle VerifyAll is held to.
func VerifyReference(certs []*Certificate) []CheckResult {
	out := make([]CheckResult, 0, len(certs))
	for _, cert := range certs {
		r := CheckResult{
			Index: cert.Check.OrigIndex,
			Pos:   cert.Check.Pos,
			Msg:   cert.Check.Msg,
			Tier:  cert.Check.Tier,
		}
		_, err := cert.verifyShared(false)
		if err == nil {
			err = cert.verifyAssert(nil)
		}
		if err != nil {
			r.Status = StatusFailed
			r.Detail = err.Error()
		} else {
			r.Status = StatusCertified
		}
		out = append(out, r)
	}
	return out
}

// CompiledFallbacks counts the consecution edges and the implication of
// cert that its compiled rows hand back to the reference path.
func CompiledFallbacks(cert *Certificate) (edges, implications int) {
	cr, err := compileCarrier(cert)
	if err != nil {
		panic(err)
	}
	p := cert.Prog
	for i, succ := range p.CFG() {
		if i >= p.Size() {
			break
		}
		primed, extra, tds := transfer(p.Stmts[i], p.NumVars())
		for _, e := range succ {
			if _, ok := cr.edge(primed, extra, tds, i, e); !ok {
				edges++
			}
		}
	}
	if a, isAssert := p.Stmts[cert.AssertIdx].(*ip.Assert); isAssert {
		if _, ok := cr.excludes(cert.AssertIdx, a.C.Negate()); !ok {
			implications++
		}
	}
	return edges, implications
}
