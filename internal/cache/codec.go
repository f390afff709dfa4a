// DTO codecs for the on-disk analysis cache. Every analysis type that a
// cache entry carries — integer programs, linear systems, violations,
// cascade statistics, certificates — is mirrored by a plain JSON-friendly
// struct here, and the DNF true/false distinction (nil vs empty slice) is
// preserved through encoding/json's null vs [].
//
// Linear expressions and constraints, the bulk of every payload, are one
// JSON string each in an exact text form (format 2; DESIGN.md §11):
//
//	expr       = int { " " var ":" coef }
//	constraint = ("eq" | "ge") " " expr
//
// The leading int is the constant; each term is a variable index and its
// coefficient, variables strictly ascending. Integers are canonical
// decimal (optional "-", no "+", no leading zeros, no "-0") of any size;
// coefficients are nonzero and indices are non-negative. The decoder
// rejects everything else, so a string that decodes re-encodes to itself
// byte for byte and no expression has two spellings.
//
// The decoder restores the pointer sharing the certificate verifier relies
// on: certificates exported by one tier run share their carrier program and
// invariant map by pointer, and certify.VerifyAll discharges the shared
// obligations once per group. Certificates are therefore stored as a
// carrier table plus per-certificate references into it, so a decoded batch
// groups exactly like a freshly exported one.
package cache

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"repro/internal/certify"
	"repro/internal/clex"
	"repro/internal/ip"
	"repro/internal/linear"
)

// Expr is a linear expression in the exact text form above, e.g.
// "-3 0:1 4:-2" for x0 - 2·x4 - 3.
type Expr string

// Constraint is one linear constraint, "eq <expr>" (E = 0) or
// "ge <expr>" (E >= 0).
type Constraint string

// System is a conjunction of constraints. JSON null/[] round-trips the
// nil/empty distinction.
type System []Constraint

// DNF mirrors ip.DNF: a disjunction of conjunctions. nil is true, empty
// non-nil is false, and a nil conjunct is a trivially-true disjunct — all
// three shapes survive the JSON round trip (null, [], [null]).
type DNF [][]Constraint

// Stmt is a tagged-union integer-program statement.
type Stmt struct {
	Op           string   `json:"op"` // assign|havoc|assume|assert|ifgoto|goto|label
	V            int      `json:"v,omitempty"`
	E            *Expr    `json:"e,omitempty"`
	C            DNF      `json:"c"`  // no omitempty: false ([]) must not decay to true (null)
	FalseC       DNF      `json:"fc"` // ifgoto only
	Target       string   `json:"target,omitempty"`
	Label        string   `json:"label,omitempty"`
	Msg          string   `json:"msg,omitempty"`
	Pos          clex.Pos `json:"pos"`
	Unverifiable bool     `json:"unv,omitempty"`
}

// Program mirrors ip.Program: the variable space as an ordered name list
// (indices are positional) and the statement list.
type Program struct {
	Name       string   `json:"name"`
	Vars       []string `json:"vars"`
	PreludeEnd int      `json:"prelude_end"`
	Stmts      []Stmt   `json:"stmts"`
}

// Violation mirrors analysis.Violation without importing the engine; the
// driver converts through the approved verdict constructor.
type Violation struct {
	Index                  int               `json:"index"`
	Msg                    string            `json:"msg"`
	Pos                    clex.Pos          `json:"pos"`
	Unverifiable           bool              `json:"unverifiable,omitempty"`
	Unresolved             bool              `json:"unresolved,omitempty"`
	CounterExample         map[string]string `json:"counter_example,omitempty"` // name -> big.Rat string
	CounterExampleIntegral bool              `json:"ce_integral,omitempty"`
	StateSystem            System            `json:"state"`
}

// Warning mirrors c2ip.Warning.
type Warning struct {
	Pos clex.Pos `json:"pos"`
	Msg string   `json:"msg"`
}

// Tier mirrors analysis.TierStat. The driver leaves CPUNs zero and never
// reads it: a hit or a revalidation runs no tier, so it reports no tier
// CPU (its ProcReport CPU is its own time), and an entry's bytes do not
// depend on the clock. The field stays because the frozen benchmark
// harness (cssvbench) still sets it.
type Tier struct {
	Domain     string `json:"domain"`
	Vars       int    `json:"vars"`
	Stmts      int    `json:"stmts"`
	Asserts    int    `json:"asserts"`
	Discharged int    `json:"discharged"`
	Iterations int    `json:"iterations"`
	CPUNs      int64  `json:"cpu_ns"`
}

// Check mirrors analysis.CheckProvenance.
type Check struct {
	Index    int      `json:"index"`
	Pos      clex.Pos `json:"pos"`
	Msg      string   `json:"msg"`
	Tier     string   `json:"tier"`
	Violated bool     `json:"violated,omitempty"`
	Vars     int      `json:"vars"`
	Stmts    int      `json:"stmts"`
}

// Cascade mirrors analysis.CascadeResult. Exhausted runs are never cached,
// so there is no Exhausted field by construction.
type Cascade struct {
	Violations    []Violation `json:"violations"`
	Iterations    int         `json:"iterations"`
	Tiers         []Tier      `json:"tiers"`
	Checks        []Check     `json:"checks"`
	Residual      *Program    `json:"residual,omitempty"`
	ResidualVars  int         `json:"residual_vars"`
	ResidualStmts int         `json:"residual_stmts"`
}

// ProcReport is the cached portion of a per-procedure result. The AST-level
// artifacts (inlined function, points-to state) are deliberately absent: a
// hit restores everything user-visible — messages, statistics, the integer
// program, cascade provenance, certification — and the driver documents
// that the front-end intermediates are nil on cached procedures.
type ProcReport struct {
	Name       string `json:"name"`
	LOC        int    `json:"loc"`
	SLOC       int    `json:"sloc"`
	IPVars     int    `json:"ip_vars"`
	IPSize     int    `json:"ip_size"`
	Iterations int    `json:"iterations"`
	// Violations are the analysis-produced messages; SideEffects the
	// modifies-clause violations appended after certification. They are
	// stored separately because the side-effect check depends on the
	// procedure's contract: an exact hit replays both, a revalidation hit
	// replays only Violations and re-runs the (cheap, AST-level)
	// side-effect check against the current contract.
	Violations  []Violation `json:"violations"`
	SideEffects []Violation `json:"side_effects"`
	Warnings    []Warning   `json:"warnings"`
	IP          *Program    `json:"ip,omitempty"`
	Cascade     *Cascade    `json:"cascade,omitempty"`
	// MemberResolved / MemberHavocked replay the procedure's contribution
	// to the run-level member-access counters, which a hit would otherwise
	// skip along with the C2IP phase.
	MemberResolved int              `json:"member_resolved"`
	MemberHavocked int              `json:"member_havocked"`
	Certification  *certify.Outcome `json:"certification,omitempty"`
}

// Carrier is one shared certificate payload: the carrier program, its
// per-point invariant systems, and the reporting metadata every
// certificate of the group references.
type Carrier struct {
	Prog     Program  `json:"prog"`
	Inv      []System `json:"inv"` // nil for unreachability carriers
	OrigStmt []int    `json:"orig_stmt,omitempty"`
	VarNames []string `json:"var_names,omitempty"`
}

// Cert is one certificate: check identity plus a reference into the
// carrier table.
type Cert struct {
	OrigIndex   int      `json:"orig_index"`
	Pos         clex.Pos `json:"pos"`
	Msg         string   `json:"msg"`
	Tier        string   `json:"tier"`
	Carrier     int      `json:"carrier"`
	AssertIdx   int      `json:"assert_idx"`
	Unreachable bool     `json:"unreachable,omitempty"`
}

// CertBatch is the payload of a .cert file.
type CertBatch struct {
	Carriers []Carrier `json:"carriers"`
	Certs    []Cert    `json:"certs"`
}

// ---------------------------------------------------------------------------
// Encoding

// EncodeExpr renders a linear expression exactly.
func EncodeExpr(e linear.Expr) Expr {
	return Expr(appendExpr(nil, e))
}

// appendExpr appends the text form of e. A linear.Expr holds no zero
// coefficient, so the output always decodes.
func appendExpr(buf []byte, e linear.Expr) []byte {
	buf = appendInt(buf, e.Const())
	for _, v := range e.Vars() {
		c := e.Coef(v)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, ':')
		buf = appendInt(buf, c)
	}
	return buf
}

func appendInt(buf []byte, x *big.Int) []byte {
	if x.IsInt64() {
		return strconv.AppendInt(buf, x.Int64(), 10)
	}
	return x.Append(buf, 10)
}

// EncodeSystem renders a constraint system exactly (nil stays nil).
func EncodeSystem(s linear.System) System {
	if s == nil {
		return nil
	}
	out := make(System, len(s))
	var buf []byte
	for i, c := range s {
		if c.Rel == linear.Eq {
			buf = append(buf[:0], "eq "...)
		} else {
			buf = append(buf[:0], "ge "...)
		}
		out[i] = Constraint(appendExpr(buf, c.E))
	}
	return out
}

// EncodeDNF renders a condition, preserving true/false/edge shapes.
func EncodeDNF(d ip.DNF) DNF {
	if d == nil {
		return nil
	}
	out := make(DNF, len(d))
	for i, conj := range d {
		out[i] = []Constraint(EncodeSystem(linear.System(conj)))
	}
	return out
}

// EncodeProgram renders an integer program.
func EncodeProgram(p *ip.Program) *Program {
	out := &Program{
		Name:       p.Name,
		Vars:       p.Space.Names(),
		PreludeEnd: p.PreludeEnd,
	}
	for _, s := range p.Stmts {
		var d Stmt
		switch s := s.(type) {
		case *ip.Assign:
			e := EncodeExpr(s.E)
			d = Stmt{Op: "assign", V: s.V, E: &e}
		case *ip.Havoc:
			d = Stmt{Op: "havoc", V: s.V}
		case *ip.Assume:
			d = Stmt{Op: "assume", C: EncodeDNF(s.C)}
		case *ip.Assert:
			d = Stmt{Op: "assert", C: EncodeDNF(s.C), Msg: s.Msg, Pos: s.Pos, Unverifiable: s.Unverifiable}
		case *ip.IfGoto:
			d = Stmt{Op: "ifgoto", C: EncodeDNF(s.C), FalseC: EncodeDNF(s.FalseC), Target: s.Target}
		case *ip.Goto:
			d = Stmt{Op: "goto", Target: s.Target}
		case *ip.Label:
			d = Stmt{Op: "label", Label: s.Name}
		default:
			// ip.Stmt is a closed union; a new statement kind must extend the
			// codec (and bump the format version) before it can be cached.
			panic(fmt.Sprintf("cache: unknown statement type %T", s))
		}
		out.Stmts = append(out.Stmts, d)
	}
	return out
}

// EncodeCounterExample renders a counter-example valuation exactly.
func EncodeCounterExample(ce map[string]*big.Rat) map[string]string {
	if ce == nil {
		return nil
	}
	out := make(map[string]string, len(ce))
	for name, r := range ce {
		out[name] = r.RatString()
	}
	return out
}

// EncodeCertificates flattens a certificate batch into a carrier table
// plus references, grouping by the (program, invariant-map) pointer
// identity the exporter established.
func EncodeCertificates(certs []*certify.Certificate) *CertBatch {
	type ckey struct {
		prog *ip.Program
		inv  *linear.System
		n    int
	}
	out := &CertBatch{}
	index := map[ckey]int{}
	for _, c := range certs {
		k := ckey{prog: c.Prog, n: len(c.Inv)}
		if len(c.Inv) > 0 {
			k.inv = &c.Inv[0]
		}
		ci, ok := index[k]
		if !ok {
			car := Carrier{
				Prog:     *EncodeProgram(c.Prog),
				OrigStmt: c.OrigStmt,
				VarNames: c.VarNames,
			}
			if c.Inv != nil {
				car.Inv = make([]System, len(c.Inv))
				for i, sys := range c.Inv {
					car.Inv[i] = EncodeSystem(sys)
				}
			}
			ci = len(out.Carriers)
			out.Carriers = append(out.Carriers, car)
			index[k] = ci
		}
		out.Certs = append(out.Certs, Cert{
			OrigIndex:   c.Check.OrigIndex,
			Pos:         c.Check.Pos,
			Msg:         c.Check.Msg,
			Tier:        c.Check.Tier,
			Carrier:     ci,
			AssertIdx:   c.AssertIdx,
			Unreachable: c.Unreachable,
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Decoding

// DecodeExpr parses the text form strictly (see the package comment): any
// other spelling of an integer, a zero coefficient, or a variable out of
// ascending order is an error rather than a guess.
func DecodeExpr(d Expr) (linear.Expr, error) {
	s := string(d)
	var e linear.Expr
	i := strings.IndexByte(s, ' ')
	if i < 0 {
		i = len(s)
	}
	var konst big.Int
	if !parseInt(s[:i], &konst) {
		return e, fmt.Errorf("cache: bad integer constant in %q", d)
	}
	terms := make([]linear.Term, 0, 4)
	last := -1
	for i < len(s) {
		s = s[i+1:] // past the separating space
		if i = strings.IndexByte(s, ' '); i < 0 {
			i = len(s)
		}
		term := s[:i]
		colon := strings.IndexByte(term, ':')
		if colon < 0 {
			return e, fmt.Errorf("cache: bad term %q in %q", term, d)
		}
		v, ok := parseIndex(term[:colon])
		if !ok || v <= last {
			return e, fmt.Errorf("cache: bad or unordered variable in %q", d)
		}
		c := new(big.Int)
		if !parseInt(term[colon+1:], c) || c.Sign() == 0 {
			return e, fmt.Errorf("cache: bad coefficient in %q", d)
		}
		terms = append(terms, linear.Term{V: v, K: c})
		last = v
	}
	return linear.NewExpr(&konst, terms...), nil
}

// parseInt sets dst to the canonical decimal integer tok: "0", or an
// optional "-" followed by digits without a leading zero.
func parseInt(tok string, dst *big.Int) bool {
	digits := strings.TrimPrefix(tok, "-")
	if digits == "0" {
		if len(tok) != 1 {
			return false // "-0"
		}
		dst.SetInt64(0)
		return true
	}
	if !canonicalDigits(digits) {
		return false
	}
	if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
		dst.SetInt64(n)
		return true
	}
	_, ok := dst.SetString(tok, 10)
	return ok
}

// parseIndex parses a canonical non-negative variable index.
func parseIndex(tok string) (int, bool) {
	if tok != "0" && !canonicalDigits(tok) {
		return 0, false
	}
	v, err := strconv.Atoi(tok)
	return v, err == nil
}

// canonicalDigits reports whether s is a non-empty digit string without a
// leading zero.
func canonicalDigits(s string) bool {
	if s == "" || s[0] == '0' {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// decodeConstraint parses "eq <expr>" or "ge <expr>".
func decodeConstraint(d Constraint) (linear.Constraint, error) {
	var rel linear.Rel
	switch {
	case strings.HasPrefix(string(d), "eq "):
		rel = linear.Eq
	case strings.HasPrefix(string(d), "ge "):
		rel = linear.Ge
	default:
		return linear.Constraint{}, fmt.Errorf("cache: unknown relation in %q", d)
	}
	e, err := DecodeExpr(Expr(d[3:]))
	return linear.Constraint{E: e, Rel: rel}, err
}

// DecodeSystem rebuilds a constraint system (nil stays nil).
func DecodeSystem(d System) (linear.System, error) {
	if d == nil {
		return nil, nil
	}
	out := make(linear.System, len(d))
	for i, c := range d {
		var err error
		if out[i], err = decodeConstraint(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeDNF rebuilds a condition.
func DecodeDNF(d DNF) (ip.DNF, error) {
	if d == nil {
		return nil, nil
	}
	out := make(ip.DNF, len(d))
	for i, conj := range d {
		sys, err := DecodeSystem(System(conj))
		if err != nil {
			return nil, err
		}
		out[i] = []linear.Constraint(sys)
	}
	return out, nil
}

// DecodeCounterExample rebuilds a counter-example valuation.
func DecodeCounterExample(m map[string]string) (map[string]*big.Rat, error) {
	if m == nil {
		return nil, nil
	}
	out := make(map[string]*big.Rat, len(m))
	for name, s := range m {
		r := new(big.Rat)
		if _, ok := r.SetString(s); !ok {
			return nil, fmt.Errorf("cache: bad rational %q", s)
		}
		out[name] = r
	}
	return out, nil
}

// DecodeProgram rebuilds an integer program and resolves its labels.
func DecodeProgram(d *Program) (*ip.Program, error) {
	p := ip.New(d.Name)
	p.PreludeEnd = d.PreludeEnd
	for _, name := range d.Vars {
		p.Space.Var(name)
	}
	if p.Space.Dim() != len(d.Vars) {
		return nil, fmt.Errorf("cache: duplicate variable names in program %q", d.Name)
	}
	for i, s := range d.Stmts {
		c, err := DecodeDNF(s.C)
		if err != nil {
			return nil, fmt.Errorf("cache: stmt %d: %w", i, err)
		}
		switch s.Op {
		case "assign":
			if s.E == nil {
				return nil, fmt.Errorf("cache: stmt %d: assign without expression", i)
			}
			e, err := DecodeExpr(*s.E)
			if err != nil {
				return nil, fmt.Errorf("cache: stmt %d: %w", i, err)
			}
			p.Emit(&ip.Assign{V: s.V, E: e})
		case "havoc":
			p.Emit(&ip.Havoc{V: s.V})
		case "assume":
			p.Emit(&ip.Assume{C: c})
		case "assert":
			p.Emit(&ip.Assert{C: c, Msg: s.Msg, Pos: s.Pos, Unverifiable: s.Unverifiable})
		case "ifgoto":
			fc, err := DecodeDNF(s.FalseC)
			if err != nil {
				return nil, fmt.Errorf("cache: stmt %d: %w", i, err)
			}
			p.Emit(&ip.IfGoto{C: c, FalseC: fc, Target: s.Target})
		case "goto":
			p.Emit(&ip.Goto{Target: s.Target})
		case "label":
			p.Emit(&ip.Label{Name: s.Label})
		default:
			return nil, fmt.Errorf("cache: stmt %d: unknown op %q", i, s.Op)
		}
	}
	if err := p.Resolve(); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return p, nil
}

// DecodeCertificates rebuilds a certificate batch. Certificates that
// referenced one carrier share the decoded program and invariant slice by
// pointer again, so VerifyAll groups them exactly as it would a fresh
// export.
func DecodeCertificates(b *CertBatch) ([]*certify.Certificate, error) {
	progs := make([]*ip.Program, len(b.Carriers))
	invs := make([][]linear.System, len(b.Carriers))
	for i := range b.Carriers {
		car := &b.Carriers[i]
		p, err := DecodeProgram(&car.Prog)
		if err != nil {
			return nil, fmt.Errorf("cache: carrier %d: %w", i, err)
		}
		progs[i] = p
		if car.Inv != nil {
			inv := make([]linear.System, len(car.Inv))
			for j, sys := range car.Inv {
				dec, err := DecodeSystem(sys)
				if err != nil {
					return nil, fmt.Errorf("cache: carrier %d invariant %d: %w", i, j, err)
				}
				inv[j] = dec
			}
			invs[i] = inv
		}
	}
	out := make([]*certify.Certificate, len(b.Certs))
	for i, c := range b.Certs {
		if c.Carrier < 0 || c.Carrier >= len(b.Carriers) {
			return nil, fmt.Errorf("cache: certificate %d references carrier %d of %d", i, c.Carrier, len(b.Carriers))
		}
		out[i] = &certify.Certificate{
			Check: certify.Check{
				OrigIndex: c.OrigIndex,
				Pos:       c.Pos,
				Msg:       c.Msg,
				Tier:      c.Tier,
			},
			Prog:        progs[c.Carrier],
			AssertIdx:   c.AssertIdx,
			Inv:         invs[c.Carrier],
			OrigStmt:    b.Carriers[c.Carrier].OrigStmt,
			VarNames:    b.Carriers[c.Carrier].VarNames,
			Unreachable: c.Unreachable,
		}
	}
	return out, nil
}
