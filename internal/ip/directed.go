package ip

import (
	"math"
	"math/big"
	"math/bits"
	"slices"

	"repro/internal/linear"
)

// DirectedOptions tunes the deterministic directed interpreter.
type DirectedOptions struct {
	// MaxDepth bounds the statements executed along one path (default 800).
	MaxDepth int
	// Budget bounds the statements executed across the whole search
	// (default 200000); the search is reported Truncated when it runs out.
	Budget int
	// Values are the candidate values tried, in order, for havocs and for
	// variables read before being written (after any per-variable hint).
	// Default: DefaultDirectedValues().
	Values []int64
}

// DefaultDirectedValues returns the candidate pool ExecDirected uses when
// DirectedOptions.Values is nil: 0, 1, -1, 2. Every call returns a fresh
// slice the caller may extend.
func DefaultDirectedValues() []int64 { return []int64{0, 1, -1, 2} }

func (o *DirectedOptions) fill() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 800
	}
	if o.Budget <= 0 {
		o.Budget = 200000
	}
	if o.Values == nil {
		o.Values = DefaultDirectedValues()
	}
}

// DirectedResult is the outcome of a directed search.
type DirectedResult struct {
	// Found reports that a concrete execution was found whose first
	// violated assert is the target.
	Found bool
	// Trace is the statement-index sequence of the found execution.
	Trace []int
	// Truncated reports that the search space was not exhausted (budget or
	// depth limit hit), so Found == false is inconclusive. The search also
	// stops Truncated, and never Found, as soon as it meets a value outside
	// int64: a program constant or coefficient, a hint, or an intermediate
	// sum. Such a value is no concrete C execution on a machine word, and
	// the caller's conservative answer for an inconclusive search stands.
	Truncated bool
	// Steps counts the statements executed across all explored paths.
	Steps int
}

// ExecDirected searches deterministically for a concrete execution whose
// first violated assert is the target statement. Unlike Exec, which
// resolves nondeterminism randomly, ExecDirected explores the choice tree
// — initial values and havocs range over a small candidate list (hints
// first), nondeterministic branches try both edges — by depth-first search
// under a global step budget. The result is a genuine witness: every
// assume held, every earlier assert passed, and the target's condition
// evaluated false on integer values.
//
// hints maps variable indices to preferred values (typically the analysis
// counter-example); they are tried first at every choice point for that
// variable. The search is fully deterministic: identical inputs explore
// identical trees.
//
// The program is compiled once per call to a flat int64 form, and the
// search runs on machine words with every operation overflow-checked. Any
// value outside int64 ends the search with Truncated set and Found unset
// (see DirectedResult.Truncated); whenever every value fits, the result is
// the one exact integer arithmetic gives, Steps included.
func (p *Program) ExecDirected(target int, hints map[int]*big.Int, opts DirectedOptions) DirectedResult {
	res, _ := p.execDirected(target, hints, opts)
	return res
}

// execDirected is ExecDirected that also reports whether the search
// stopped on a value outside int64.
func (p *Program) execDirected(target int, hints map[int]*big.Int, opts DirectedOptions) (res DirectedResult, overflow bool) {
	opts.fill()
	if err := p.Resolve(); err != nil {
		return res, false
	}
	if target < 0 || target >= len(p.Stmts) {
		return res, false
	}
	if _, ok := p.Stmts[target].(*Assert); !ok {
		return res, false
	}
	var d *directed
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(directedOverflow); !ok {
				panic(r)
			}
			res, overflow = DirectedResult{Truncated: true}, true
			if d != nil {
				res.Steps = d.res.Steps
			}
		}
	}()
	d = p.compileDirected(target, hints, opts)
	d.run(0, 0)
	if d.res.Found {
		d.res.Truncated = false
	}
	return d.res, false
}

// directedOverflow is the panic value that unwinds the directed search
// when a value leaves int64.
type directedOverflow struct{}

// dkind is the kind of a compiled statement.
type dkind uint8

const (
	dLabel dkind = iota
	dAssign
	dHavoc
	dAssume
	dAssert
	dUnverifiable // an assert that always fails and is never a target
	dGoto
	dIfGoto
	dBranch // if (unknown) goto
)

// dterm is one k*x_v term of a compiled expression.
type dterm struct {
	v int
	k int64
}

// dexpr is a compiled linear expression: its terms in variable order and
// its constant.
type dexpr struct {
	terms []dterm
	k     int64
}

// dcons is a compiled constraint: e = 0 when eq, e >= 0 otherwise.
type dcons struct {
	e  dexpr
	eq bool
}

// dcond is a compiled DNF with its syntactic truth flag.
type dcond struct {
	disj   [][]dcons
	isTrue bool
}

// dstmt is one compiled statement.
type dstmt struct {
	kind dkind
	// v is the variable an assign or havoc writes; e an assign's value.
	v int
	e dexpr
	// reads lists the variables the statement reads, in the order the
	// search binds undefined ones: sorted, and for a conditional branch
	// the taken condition's list followed by the fall-through's.
	reads []int
	// cond is the assume, assert or branch condition; fall a conditional
	// branch's fall-through condition.
	cond, fall dcond
	// target is a jump's resolved statement index.
	target int
	// after is, for a havoc, the condition of the assume that follows it.
	after *dcond
}

// directed is the state of one directed search.
type directed struct {
	stmts    []dstmt
	target   int
	maxDepth int
	budget   int
	pool     []int64
	// hint[v] is valid where hinted[v] is set.
	hint   []int64
	hinted []bool
	// env[v] is valid where bit v of def is set.
	env []int64
	def []uint64
	// cands is a stack of candidate lists: each choice point appends its
	// candidates past the end and truncates back when done.
	cands []int64
	trace []int
	res   DirectedResult
}

// compileDirected builds the search state. It panics with
// directedOverflow when a program constant, coefficient or hint lies
// outside int64.
func (p *Program) compileDirected(target int, hints map[int]*big.Int, opts DirectedOptions) *directed {
	n := p.NumVars()
	d := &directed{
		stmts:    make([]dstmt, len(p.Stmts)),
		target:   target,
		maxDepth: opts.MaxDepth,
		budget:   opts.Budget,
		pool:     opts.Values,
		hint:     make([]int64, n),
		hinted:   make([]bool, n),
		env:      make([]int64, n),
		def:      make([]uint64, (n+63)/64),
	}
	for v, h := range hints {
		if h != nil && v >= 0 && v < n {
			d.hint[v], d.hinted[v] = int64Of(h), true
		}
	}
	for i, s := range p.Stmts {
		c := &d.stmts[i]
		switch s := s.(type) {
		case *Assign:
			c.kind, c.v, c.e, c.reads = dAssign, s.V, compileExpr(s.E), s.E.Vars()
		case *Havoc:
			c.kind, c.v = dHavoc, s.V
		case *Assume:
			c.kind, c.cond, c.reads = dAssume, compileDNF(s.C), dnfVars(s.C)
		case *Assert:
			c.kind = dUnverifiable
			if !s.Unverifiable {
				c.kind, c.cond, c.reads = dAssert, compileDNF(s.C), dnfVars(s.C)
			}
		case *Goto:
			c.kind, c.target = dGoto, p.TargetOf(s.Target)
		case *IfGoto:
			c.kind, c.target = dBranch, p.TargetOf(s.Target)
			if s.C != nil {
				fall := s.FallthroughCond()
				c.kind, c.cond, c.fall = dIfGoto, compileDNF(s.C), compileDNF(fall)
				c.reads = append(dnfVars(s.C), dnfVars(fall)...)
			}
		default: // *Label
			c.kind = dLabel
		}
	}
	for i := range d.stmts {
		if d.stmts[i].kind == dHavoc && i+1 < len(d.stmts) && d.stmts[i+1].kind == dAssume {
			d.stmts[i].after = &d.stmts[i+1].cond
		}
	}
	return d
}

func compileExpr(e linear.Expr) dexpr {
	out := dexpr{k: int64Of(e.Const())}
	vs := e.Vars()
	out.terms = make([]dterm, len(vs))
	for i, v := range vs {
		out.terms[i] = dterm{v: v, k: int64Of(e.Coef(v))}
	}
	return out
}

func compileDNF(d DNF) dcond {
	out := dcond{disj: make([][]dcons, len(d)), isTrue: d.IsTrue()}
	for i, conj := range d {
		out.disj[i] = make([]dcons, len(conj))
		for j, c := range conj {
			out.disj[i][j] = dcons{e: compileExpr(c.E), eq: c.Rel == linear.Eq}
		}
	}
	return out
}

// dnfVars returns the sorted, distinct variables of d's constraints.
func dnfVars(d DNF) []int {
	var out []int
	for _, conj := range d {
		for _, c := range conj {
			out = append(out, c.E.Vars()...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// status is the outcome of exploring one subtree.
type status uint8

const (
	deadend status = iota
	found
	exhausted // budget ran out: abort the whole search
)

func (d *directed) isDef(v int) bool { return d.def[v>>6]&(1<<(uint(v)&63)) != 0 }

// bind runs the search from pc with env[v] = val, then restores env[v].
func (d *directed) bind(v int, val int64, pc, depth int) status {
	w, bit := v>>6, uint64(1)<<(uint(v)&63)
	oldVal, oldDef := d.env[v], d.def[w]
	d.env[v] = val
	d.def[w] |= bit
	st := d.run(pc, depth)
	d.env[v], d.def[w] = oldVal, oldDef
	return st
}

// addCand appends x to the candidate list starting at base unless it is
// already there.
func (d *directed) addCand(base int, x int64) {
	for _, y := range d.cands[base:] {
		if y == x {
			return
		}
	}
	d.cands = append(d.cands, x)
}

// tryEach runs the search from pc once per candidate value of v listed
// from base, stopping at the first subtree that is not a dead end.
func (d *directed) tryEach(v, base, pc, depth int) status {
	st := deadend
	for i := base; i < len(d.cands) && st == deadend; i++ {
		st = d.bind(v, d.cands[i], pc, depth)
	}
	d.cands = d.cands[:base]
	return st
}

// eval evaluates e with variable skip left out.
func (d *directed) eval(e *dexpr, skip int) int64 {
	r := e.k
	for _, t := range e.terms {
		if t.v != skip {
			r = add64(r, mul64(t.k, d.env[t.v]))
		}
	}
	return r
}

// holds reports whether c is true in the current environment.
func (d *directed) holds(c *dcond) bool {
	if c.isTrue {
		return true
	}
	for _, conj := range c.disj {
		all := true
		for i := range conj {
			if x := d.eval(&conj[i].e, -1); conj[i].eq && x != 0 || x < 0 {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// solveFor appends to the candidate list from base the values for v that
// the constraints of c in which v is the only unbound variable suggest:
// the exact solution of an equality, and the boundary of an inequality
// together with its just-violating neighbor (boundaries are where asserts
// tip over). Without this, assume(x = 4) deadends unless 4 happens to be
// in the generic pool.
func (d *directed) solveFor(c *dcond, v, base int) {
	for _, conj := range c.disj {
		for i := range conj {
			cs := &conj[i]
			var k int64
			single := true
			for _, t := range cs.e.terms {
				if t.v == v {
					k = t.k
				} else if !d.isDef(t.v) {
					single = false
					break
				}
			}
			if k == 0 || !single {
				continue
			}
			// cs.e = k*x + rest; solve k*x = a.
			a := neg64(d.eval(&cs.e, v))
			switch {
			case cs.eq:
				if a%k == 0 {
					d.addCand(base, floorDiv(a, k))
				}
			case k > 0: // x >= ceil(a/k)
				b := floorDiv(add64(a, k-1), k)
				d.addCand(base, b)
				d.addCand(base, add64(b, -1))
			default: // x <= floor(a/k)
				b := floorDiv(a, k)
				d.addCand(base, b)
				d.addCand(base, add64(b, 1))
			}
		}
	}
}

// candidates appends v's candidate values to the list from base, in
// order: the hint, the values solved from conds, the generic pool.
func (d *directed) candidates(v, base int, conds ...*dcond) {
	if d.hinted[v] {
		d.addCand(base, d.hint[v])
	}
	for _, c := range conds {
		if c != nil {
			d.solveFor(c, v, base)
		}
	}
	for _, x := range d.pool {
		d.addCand(base, x)
	}
}

// run explores every execution from statement pc at path depth depth.
func (d *directed) run(pc, depth int) status {
	if pc >= len(d.stmts) {
		return deadend // normal exit: no violation on this path
	}
	if depth >= d.maxDepth {
		d.res.Truncated = true
		return deadend
	}
	if d.res.Steps >= d.budget {
		d.res.Truncated = true
		return exhausted
	}
	// Bind every undefined variable the statement reads before executing
	// it (initial values are lazy choice points), trying the values the
	// statement's own constraints suggest.
	s := &d.stmts[pc]
	for _, v := range s.reads {
		if !d.isDef(v) {
			base := len(d.cands)
			switch s.kind {
			case dAssume, dAssert:
				d.candidates(v, base, &s.cond)
			case dIfGoto:
				d.candidates(v, base, &s.cond, &s.fall)
			default:
				d.candidates(v, base)
			}
			return d.tryEach(v, base, pc, depth)
		}
	}
	d.res.Steps++
	d.trace = append(d.trace, pc)
	st := d.exec(s, pc, depth)
	d.trace = d.trace[:len(d.trace)-1]
	return st
}

// exec executes statement s at pc, every variable it reads being bound.
func (d *directed) exec(s *dstmt, pc, depth int) status {
	switch s.kind {
	case dAssign:
		return d.bind(s.v, d.eval(&s.e, -1), pc+1, depth+1)
	case dHavoc:
		// Havocked variables are typically constrained by the assume that
		// follows (x := unknown; assume(...)): solve it for s.v with s.v
		// unbound so the candidates include the values that matter.
		base := len(d.cands)
		w, bit := s.v>>6, uint64(1)<<(uint(s.v)&63)
		oldDef := d.def[w]
		d.def[w] &^= bit
		d.candidates(s.v, base, s.after)
		d.def[w] = oldDef
		return d.tryEach(s.v, base, pc+1, depth+1)
	case dAssume:
		if !d.holds(&s.cond) {
			return deadend // blocked
		}
	case dAssert:
		if !d.holds(&s.cond) {
			if pc != d.target {
				return deadend // first error is a different assert: halt
			}
			d.res.Found = true
			d.res.Trace = append([]int(nil), d.trace...)
			return found
		}
	case dUnverifiable:
		return deadend // always violated, never a witness
	case dGoto:
		return d.run(s.target, depth+1)
	case dBranch:
		// Nondeterministic branch: taken edge first, then the fall-through.
		if st := d.run(s.target, depth+1); st != deadend {
			return st
		}
	case dIfGoto:
		if d.holds(&s.cond) {
			return d.run(s.target, depth+1)
		}
		if !d.holds(&s.fall) {
			return deadend // infeasible fall-through: blocked
		}
	}
	return d.run(pc+1, depth+1)
}

// The helpers below panic with directedOverflow instead of leaving int64.

func int64Of(x *big.Int) int64 {
	if !x.IsInt64() {
		panic(directedOverflow{})
	}
	return x.Int64()
}

func add64(a, b int64) int64 {
	s := a + b
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		panic(directedOverflow{})
	}
	return s
}

func neg64(a int64) int64 {
	if a == math.MinInt64 {
		panic(directedOverflow{})
	}
	return -a
}

// mul64 checks that the signed high word of the 128-bit product is the
// sign extension of the low word.
func mul64(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	if int64(hi) != int64(lo)>>63 {
		panic(directedOverflow{})
	}
	return int64(lo)
}

// floorDiv returns floor(a/b) for b != 0.
func floorDiv(a, b int64) int64 {
	if a == math.MinInt64 && b == -1 {
		panic(directedOverflow{})
	}
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
