package core

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/certify"
	"repro/internal/ip"
)

// certifyProc runs the a-posteriori certification of one procedure: every
// certificate is verified by the independent Fourier–Motzkin checker, every
// violation is replayed through the deterministic directed interpreter of
// the original IP. tierOf names the domain that decided each violated check
// (empty entries are allowed). Checks are ordered by statement index so the
// outcome is identical for every worker count.
func certifyProc(p *ip.Program, certs []*certify.Certificate,
	viols []analysis.Violation, tierOf map[int]string) *certify.Outcome {
	results := certify.VerifyAll(certs)
	rp := certify.NewReplayer(p)
	for _, v := range viols {
		req := certify.ReplayRequest{
			Index: v.Index, Pos: v.Pos, Msg: v.Msg,
			Tier:         tierOf[v.Index],
			Unverifiable: v.Unverifiable,
		}
		if v.CounterExampleIntegral {
			req.Hints = v.CounterExample
		}
		results = append(results, rp.Replay(req, ip.DirectedOptions{}))
	}
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Index != results[j].Index {
			return results[i].Index < results[j].Index
		}
		return results[i].Msg < results[j].Msg
	})
	out := &certify.Outcome{}
	for _, r := range results {
		out.Add(r)
	}
	return out
}
