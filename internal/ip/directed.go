package ip

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sync"

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
	// Steps counts the statements executed across all explored paths. A
	// subtree the search had already explored from the same state is not
	// run again, but its statements still count (see Directed.Executed),
	// so Steps is the count of the search without that memo.
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
// The search runs on machine words with every operation overflow-checked.
// Any value outside int64 ends the search with Truncated set and Found
// unset (see DirectedResult.Truncated); whenever every value fits, the
// result is the one exact integer arithmetic gives, Steps included.
// ExecDirected compiles the program for each call; CompileDirected
// compiles it once for several searches.
func (p *Program) ExecDirected(target int, hints map[int]*big.Int, opts DirectedOptions) DirectedResult {
	return p.CompileDirected().Exec(target, hints, opts)
}

// Directed is a program compiled for the directed search: flat int64
// statement records, and the live variables of the statements where the
// search memoizes the subtrees it has explored. It stays valid while the
// program is not modified. A Directed runs one search at a time.
type Directed struct {
	p *Program
	// invalid marks a program whose labels do not resolve; overflow one
	// with a constant or coefficient outside int64.
	invalid, overflow bool
	stmts             []dstmt
	// last counts what the most recent search did.
	last memoStats
}

// memoStats counts the work of one search.
type memoStats struct {
	// executed counts the statements the search ran; Steps adds those of
	// the subtrees it replayed from the memo.
	executed int
	// hits counts memo hits, overruns the hits whose subtree the step
	// budget would have cut short.
	hits, overruns int
}

// CompileDirected compiles p for any number of directed searches.
func (p *Program) CompileDirected() *Directed {
	c := &Directed{p: p}
	if err := p.Resolve(); err != nil {
		c.invalid = true
		return c
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(directedOverflow); !ok {
				panic(r)
			}
			c.overflow, c.stmts = true, nil
		}
	}()
	c.stmts = compileStmts(p)
	markMemoPoints(c.stmts, p.NumVars())
	return c
}

// Exec runs one directed search for target (see ExecDirected).
func (c *Directed) Exec(target int, hints map[int]*big.Int, opts DirectedOptions) DirectedResult {
	res, _ := c.exec(target, hints, opts)
	return res
}

// Executed returns the number of statements the most recent Exec ran.
// Its Steps also counts the statements of every subtree the search had
// already explored from the same state and replayed from its memo, so
// Executed never exceeds Steps.
func (c *Directed) Executed() int { return c.last.executed }

// exec is Exec that also reports whether the search stopped on a value
// outside int64.
func (c *Directed) exec(target int, hints map[int]*big.Int, opts DirectedOptions) (res DirectedResult, overflow bool) {
	opts.fill()
	c.last = memoStats{}
	if c.invalid || target < 0 || target >= len(c.p.Stmts) {
		return res, false
	}
	if _, ok := c.p.Stmts[target].(*Assert); !ok {
		return res, false
	}
	if c.overflow {
		return DirectedResult{Truncated: true}, true
	}
	d := &directed{
		stmts:    c.stmts,
		target:   target,
		maxDepth: opts.MaxDepth,
		budget:   opts.Budget,
		pool:     opts.Values,
		memo:     memoPool.Get().(*memoTable),
	}
	defer func() {
		d.memo.reset()
		memoPool.Put(d.memo)
		c.last = d.stats
		if r := recover(); r != nil {
			if _, ok := r.(directedOverflow); !ok {
				panic(r)
			}
			res, overflow = DirectedResult{Truncated: true, Steps: d.res.Steps}, true
		}
	}()
	d.bindHints(hints, c.p.NumVars())
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
	// memo marks a memo point: the search looks its state up on entry
	// and records the subtrees below it that end without a witness.
	memo bool
	// v is the variable an assign or havoc writes; e an assign's value.
	v int
	e dexpr
	// reads lists the variables the statement reads, in the order the
	// search binds undefined ones: sorted, and for a conditional branch
	// the taken condition's list followed by the fall-through's.
	reads []int
	// live lists, at a memo point, the variables some path from the
	// statement reads before writing them, in increasing order.
	live []int32
	// cond is the assume, assert or branch condition; fall a conditional
	// branch's fall-through condition.
	cond dcond
	fall *dcond
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
	// memo holds the explored states whose subtree ended without a
	// witness; checked is the step count at the latest budget check.
	memo    *memoTable
	checked int
	stats   memoStats
}

// bindHints sizes the environment for n variables and records the hints.
// It panics with directedOverflow when a hint lies outside int64.
func (d *directed) bindHints(hints map[int]*big.Int, n int) {
	d.hint = make([]int64, n)
	d.hinted = make([]bool, n)
	d.env = make([]int64, n)
	d.def = make([]uint64, (n+63)/64)
	for v, h := range hints {
		if h != nil && v >= 0 && v < n {
			d.hint[v], d.hinted[v] = int64Of(h), true
		}
	}
}

// compileStmts compiles p's statements. It panics with directedOverflow
// when a program constant or coefficient lies outside int64.
func compileStmts(p *Program) []dstmt {
	stmts := make([]dstmt, len(p.Stmts))
	for i, s := range p.Stmts {
		c := &stmts[i]
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
				c.kind, c.cond = dIfGoto, compileDNF(s.C)
				c.fall = new(dcond)
				*c.fall = compileDNF(fall)
				c.reads = append(dnfVars(s.C), dnfVars(fall)...)
			}
		default: // *Label
			c.kind = dLabel
		}
	}
	for i := range stmts {
		if stmts[i].kind == dHavoc && i+1 < len(stmts) && stmts[i+1].kind == dAssume {
			stmts[i].after = &stmts[i+1].cond
		}
	}
	return stmts
}

// succs returns the statements the search may run after statement pc:
// none past an unverifiable assert, the jump target for a goto, the
// target and pc+1 for a branch, pc+1 otherwise. Indices past the last
// statement are the normal exit.
func succs(s *dstmt, pc int) (a, b int) {
	switch s.kind {
	case dUnverifiable:
		return -1, -1
	case dGoto:
		return s.target, -1
	case dIfGoto, dBranch:
		return s.target, pc + 1
	}
	return pc + 1, -1
}

// markMemoPoints computes which variables are live at each statement —
// read on some path from it before being written — and marks the memo
// points with their live lists: the labels, the statements entered over
// an edge on which a live variable dies, and the statement after a havoc
// of a variable that is dead there. At any other statement the state
// carries no less information than at the memo point before it, so
// memoizing there too would prune no more.
func markMemoPoints(stmts []dstmt, n int) {
	w := (n + 63) / 64
	live := make([]uint64, (len(stmts)+1)*w) // row len(stmts) is the exit
	row := func(pc int) []uint64 {
		if pc < 0 {
			return nil
		}
		return live[pc*w : (pc+1)*w]
	}
	next := make([]uint64, w)
	for changed := true; changed; {
		changed = false
		for pc := len(stmts) - 1; pc >= 0; pc-- {
			s := &stmts[pc]
			clear(next)
			a, b := succs(s, pc)
			for _, t := range [2][]uint64{row(a), row(b)} {
				for i, x := range t {
					next[i] |= x
				}
			}
			if s.kind == dAssign || s.kind == dHavoc {
				next[s.v>>6] &^= 1 << (uint(s.v) & 63)
			}
			for _, v := range s.reads {
				next[v>>6] |= 1 << (uint(v) & 63)
			}
			if cur := row(pc); !slices.Equal(cur, next) {
				copy(cur, next)
				changed = true
			}
		}
	}
	dies := func(from, to int) bool {
		for i, x := range row(from) {
			if x&^row(to)[i] != 0 {
				return true
			}
		}
		return false
	}
	for pc := range stmts {
		s := &stmts[pc]
		if s.kind == dLabel {
			s.memo = true
		}
		a, b := succs(s, pc)
		for _, t := range [2]int{a, b} {
			if t >= 0 && t < len(stmts) && dies(pc, t) {
				stmts[t].memo = true
			}
		}
		if s.kind == dHavoc && pc+1 < len(stmts) {
			if after := row(pc + 1); after[s.v>>6]&(1<<(uint(s.v)&63)) == 0 {
				stmts[pc+1].memo = true
			}
		}
	}
	total := 0
	for pc := range stmts {
		if stmts[pc].memo {
			for _, x := range row(pc) {
				total += bits.OnesCount64(x)
			}
		}
	}
	vars := make([]int32, 0, total)
	for pc := range stmts {
		if !stmts[pc].memo {
			continue
		}
		start := len(vars)
		for i, x := range row(pc) {
			for ; x != 0; x &= x - 1 {
				vars = append(vars, int32(i*64+bits.TrailingZeros64(x)))
			}
		}
		stmts[pc].live = vars[start:len(vars):len(vars)]
	}
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
	d.checked = d.res.Steps
	if s := &d.stmts[pc]; s.memo {
		return d.memoRun(s, pc, depth)
	}
	return d.step(&d.stmts[pc], pc, depth)
}

// step binds the variables statement s reads and executes it.
func (d *directed) step(s *dstmt, pc, depth int) status {
	// Bind every undefined variable the statement reads before executing
	// it (initial values are lazy choice points), trying the values the
	// statement's own constraints suggest.
	for _, v := range s.reads {
		if !d.isDef(v) {
			base := len(d.cands)
			switch s.kind {
			case dAssume, dAssert:
				d.candidates(v, base, &s.cond)
			case dIfGoto:
				d.candidates(v, base, &s.cond, s.fall)
			default:
				d.candidates(v, base)
			}
			return d.tryEach(v, base, pc, depth)
		}
	}
	d.res.Steps++
	d.stats.executed++
	d.trace = append(d.trace, pc)
	st := d.exec(s, pc, depth)
	d.trace = d.trace[:len(d.trace)-1]
	return st
}

// memoRun runs step at a memo point, unless the memo holds the state:
// pc, depth, which live variables are defined and their values. Nothing
// else of the state (dead variables, the trace, the candidates below the
// top of the stack) changes the subtree a deadend search explores, and
// hints, pool and target are fixed for the search. A deadend subtree of
// at least memoMinSteps steps is recorded. A hit adds its steps; when the budget would have run out inside
// that subtree, the search stops exactly as it would have there: Steps at
// the budget, Truncated, exhausted. A hit needs not replay a depth
// truncation: the recorded subtree ran earlier in the same search, which
// never clears Truncated.
func (d *directed) memoRun(s *dstmt, pc, depth int) status {
	m := d.memo
	if len(m.keys) >= maxMemoKeys {
		return d.step(s, pc, depth) // the arena is full: search on without
	}
	off := len(m.keys)
	k := binary.AppendUvarint(m.keys, uint64(pc))
	k = binary.AppendUvarint(k, uint64(depth))
	for i := 0; i < len(s.live); i += 8 {
		var b byte
		for j, v := range s.live[i:min(i+8, len(s.live))] {
			if d.isDef(int(v)) {
				b |= 1 << uint(j)
			}
		}
		k = append(k, b)
	}
	for _, v := range s.live {
		if d.isDef(int(v)) {
			k = binary.AppendVarint(k, d.env[v])
		}
	}
	m.keys = k
	h := m.hash(m.keys[off:])
	if e := m.find(h, off); e != nil {
		m.keys = m.keys[:off]
		return d.replay(e)
	}
	start := d.res.Steps
	st := d.step(s, pc, depth)
	if st == deadend && d.res.Steps-start < memoMinSteps {
		// No subtree below was recorded either: drop their keys too.
		m.keys = m.keys[:off]
	} else if st == deadend {
		m.add(h, memoEntry{
			off: int32(off), n: int32(len(k) - off),
			steps: d.res.Steps - start,
			tail:  d.checked == d.res.Steps,
		})
	}
	return st
}

// replay accounts for a subtree the memo recorded as a dead end. Every
// step of the subtree was preceded by a budget check, and tail records a
// check after its last step, so its last check came steps-1 (or steps)
// after its first.
func (d *directed) replay(e *memoEntry) status {
	d.stats.hits++
	start := d.res.Steps
	last := start + e.steps - 1
	if e.tail {
		last++
	}
	if last >= d.budget {
		d.stats.overruns++
		d.res.Steps = d.budget
		d.res.Truncated = true
		return exhausted
	}
	d.res.Steps += e.steps
	d.checked = last
	return deadend
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
		if !d.holds(s.fall) {
			return deadend // infeasible fall-through: blocked
		}
	}
	return d.run(pc+1, depth+1)
}

// memoPool recycles memo tables across searches.
var memoPool = sync.Pool{New: func() any { return &memoTable{seed: maphash.MakeSeed()} }}

// maxMemoKeys bounds the key arena, so that int32 offsets address it.
const maxMemoKeys = 1 << 30

// memoMinSteps is the fewest steps a subtree must take to be recorded.
// Re-running a shorter one costs little more than its entry and lookups.
// Over the corpus replays, recording every dead end keeps 7,114 entries
// per pass and executes 31,201 statements; this bound keeps 1,629 and
// executes 36,896.
const memoMinSteps = 8

// memoTable maps search states to the subtrees explored from them. A key
// is the state's pc and depth as uvarints, one bit per live variable
// telling whether it is defined, and the values of the defined ones as
// varints; keys lie end to end in one arena, and heads indexes entries by
// hash, chaining entries with equal hash bits.
type memoTable struct {
	seed maphash.Seed
	keys []byte
	ents []memoEntry
	// heads[h&mask] is 1 + the index of its chain's first entry, 0 for
	// an empty chain.
	heads []int32
}

// memoEntry is one explored state: its key, and the steps of its subtree
// and whether a budget check followed the last of them.
type memoEntry struct {
	off, n int32
	next   int32 // 1 + the index of the chain's next entry, 0 at its end
	tail   bool
	steps  int
}

func (m *memoTable) key(e *memoEntry) []byte { return m.keys[e.off : e.off+e.n] }

func (m *memoTable) hash(key []byte) uint64 { return maphash.Bytes(m.seed, key) }

// find returns the entry whose key equals the one from off to the end of
// the arena, which hashes to h, or nil.
func (m *memoTable) find(h uint64, off int) *memoEntry {
	if len(m.heads) == 0 {
		return nil
	}
	key := m.keys[off:]
	for i := m.heads[h&uint64(len(m.heads)-1)]; i != 0; {
		e := &m.ents[i-1]
		if bytes.Equal(m.key(e), key) {
			return e
		}
		i = e.next
	}
	return nil
}

// add inserts e, whose key already lies in the arena and hashes to h.
// When the entries outnumber the chains, the chains double and every key
// is rehashed.
func (m *memoTable) add(h uint64, e memoEntry) {
	m.ents = append(m.ents, e)
	if len(m.ents) > len(m.heads) {
		m.heads = make([]int32, max(256, 2*len(m.heads)))
		for i := range m.ents {
			m.link(i, m.hash(m.key(&m.ents[i])))
		}
		return
	}
	m.link(len(m.ents)-1, h)
}

// link puts entry i, whose key hashes to h, at the head of its chain.
func (m *memoTable) link(i int, h uint64) {
	b := h & uint64(len(m.heads)-1)
	m.ents[i].next = m.heads[b]
	m.heads[b] = int32(i + 1)
}

// reset empties the table, keeping its storage.
func (m *memoTable) reset() {
	m.keys, m.ents = m.keys[:0], m.ents[:0]
	clear(m.heads)
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
