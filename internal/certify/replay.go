package certify

import (
	"math/big"
	"sort"

	"repro/internal/clex"
	"repro/internal/ip"
	"repro/internal/linear"
)

// Status classifies one check after certification.
type Status string

// Check statuses.
const (
	// StatusCertified: the discharge was re-proved by the independent
	// Fourier–Motzkin checker.
	StatusCertified Status = "certified"
	// StatusFailed: the certificate did not verify — either the analysis
	// result is wrong or the invariant export is broken; treat as a bug.
	StatusFailed Status = "certificate-failed"
	// StatusWitnessed: a reported violation was replayed to a concrete
	// trace whose first violated assert is this check — a true error.
	StatusWitnessed Status = "witnessed"
	// StatusPotential: a reported violation with no concrete replay found —
	// a possible false alarm (or a witness beyond the search budget).
	StatusPotential Status = "potential"
)

// CheckResult is the certification outcome for one check.
type CheckResult struct {
	// Index is the assert's statement index in the original IP.
	Index int
	Pos   clex.Pos
	Msg   string
	// Tier is the domain that decided the check.
	Tier   string
	Status Status
	// Detail carries the verification error (StatusFailed), a note on the
	// replay ("concrete trace, N steps" / "search truncated"), or "".
	Detail string
	// TraceLen is the length of the replayed trace (witnessed only).
	TraceLen int
}

// Outcome aggregates a procedure's certification.
type Outcome struct {
	// Checks in original-program order (discharged and violated).
	Checks []CheckResult
	// Certified/Failed count discharged checks; Witnessed/Potential count
	// violations.
	Certified, Failed, Witnessed, Potential int
}

// Add appends a result and updates the counters.
func (o *Outcome) Add(r CheckResult) {
	o.Checks = append(o.Checks, r)
	switch r.Status {
	case StatusCertified:
		o.Certified++
	case StatusFailed:
		o.Failed++
	case StatusWitnessed:
		o.Witnessed++
	case StatusPotential:
		o.Potential++
	}
}

// VerifyAll verifies every certificate and returns one result per check.
// Certificates sharing their carrier program and invariant map by pointer
// (as one tier run exports them) have the shared obligations — initiation
// and consecution — established once for the group; the per-assert
// implication always runs per certificate. The group's invariant map is
// compiled to int64 rows once (carrierRows) and every obligation of the
// group reads it. The outcome is identical to calling Verify on each
// certificate, because the shared obligations are a pure function of the
// pointer-identical (Prog, Inv) pair.
func VerifyAll(certs []*Certificate) []CheckResult {
	type gkey struct {
		prog *ip.Program
		inv0 *linear.System
		n    int
	}
	type group struct {
		rows *carrierRows
		err  error
	}
	shared := make(map[gkey]*group)
	out := make([]CheckResult, 0, len(certs))
	for _, cert := range certs {
		r := CheckResult{
			Index: cert.Check.OrigIndex,
			Pos:   cert.Check.Pos,
			Msg:   cert.Check.Msg,
			Tier:  cert.Check.Tier,
		}
		var err error
		if cert.Unreachable || len(cert.Inv) == 0 {
			err = cert.Verify()
		} else {
			k := gkey{cert.Prog, &cert.Inv[0], len(cert.Inv)}
			g, ok := shared[k]
			if !ok {
				g = &group{}
				g.rows, g.err = cert.verifyShared(true)
				shared[k] = g
			}
			if g.err != nil {
				err = g.err
			} else {
				err = cert.verifyAssert(g.rows)
			}
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

// ReplayRequest describes one reported violation to replay.
type ReplayRequest struct {
	// Index is the assert's statement index in the program replayed
	// against (the original IP: slices over-approximate executions, so a
	// trace found there might not be real).
	Index int
	Pos   clex.Pos
	Msg   string
	Tier  string
	// Unverifiable marks conditions outside linear arithmetic; they are
	// always classified potential (reaching one concretely proves nothing
	// about the unexpressible condition).
	Unverifiable bool
	// Hints are preferred values per variable name, typically the integral
	// coordinates of the analysis counter-example (lex-min corner).
	Hints map[string]*big.Rat
}

// Replay classifies one violation by deterministic directed execution of
// the original program: witnessed when a concrete trace whose first
// violated assert is the target exists within the search budget, potential
// otherwise.
func Replay(p *ip.Program, req ReplayRequest, opts ip.DirectedOptions) CheckResult {
	return NewReplayer(p).Replay(req, opts)
}

// Replayer replays the violations of one program, compiling it for the
// directed search at most once. It replays one violation at a time.
type Replayer struct {
	p *ip.Program
	d *ip.Directed
}

// NewReplayer returns a Replayer for p; p is compiled at the first replay
// that searches.
func NewReplayer(p *ip.Program) *Replayer { return &Replayer{p: p} }

// Replay classifies one violation of the Replayer's program, as the
// package-level Replay does.
func (rp *Replayer) Replay(req ReplayRequest, opts ip.DirectedOptions) CheckResult {
	r := CheckResult{Index: req.Index, Pos: req.Pos, Msg: req.Msg, Tier: req.Tier}
	if req.Unverifiable {
		r.Status = StatusPotential
		r.Detail = "condition not expressible in linear arithmetic"
		return r
	}
	p := rp.p
	hints := map[int]*big.Int{}
	for _, name := range sortedNames(req.Hints) {
		v, ok := p.Space.Lookup(name)
		if !ok {
			continue
		}
		rat := req.Hints[name]
		if rat == nil || !rat.IsInt() {
			continue // only integral coordinates are concrete candidates
		}
		hints[v] = new(big.Int).Set(rat.Num())
	}
	opts.Values = seedValues(opts.Values, hints)
	if rp.d == nil {
		rp.d = p.CompileDirected()
	}
	dr := rp.d.Exec(req.Index, hints, opts)
	if dr.Found {
		r.Status = StatusWitnessed
		r.TraceLen = len(dr.Trace)
		r.Detail = "concrete trace replays the violation"
		return r
	}
	r.Status = StatusPotential
	if dr.Truncated {
		r.Detail = "directed search truncated before exhausting the space"
	} else {
		// The candidate value list is finite, so exhausting the choice tree
		// does not prove absence — only that no witness was found.
		r.Detail = "directed search found no witness over its candidate values"
	}
	return r
}

// seedValues extends the directed interpreter's global candidate pool with
// the hint magnitudes and their neighbors, so variables *derived* from the
// hinted ones (a length an offset must equal, a size one past it) can reach
// the counter-example region. values == nil means the interpreter default.
func seedValues(values []int64, hints map[int]*big.Int) []int64 {
	if len(hints) == 0 {
		return values
	}
	if values == nil {
		values = ip.DefaultDirectedValues()
	}
	out := append([]int64(nil), values...)
	seen := map[int64]bool{}
	for _, v := range out {
		seen[v] = true
	}
	vars := make([]int, 0, len(hints))
	for v := range hints {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	for _, v := range vars {
		h := hints[v]
		if !h.IsInt64() {
			continue
		}
		for _, d := range []int64{0, -1, 1} {
			val := h.Int64() + d
			if !seen[val] {
				seen[val] = true
				out = append(out, val)
			}
		}
	}
	return out
}
