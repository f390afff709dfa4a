// Package linear provides exact linear expressions and constraints over a
// finite set of integer variables, the lingua franca between the C2IP
// transformer, the numeric abstract domains, and the contract derivation
// algorithms.
//
// Variables are identified by dense indices into a Space, which maps them
// to the constraint-variable names of paper §3.4.1 (l.val, l.offset,
// l.aSize, l.is_nullt, l.len, ...). All coefficients are exact big.Int
// values: the analysis never rounds.
package linear

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// Space assigns dense indices to named variables.
type Space struct {
	names []string
	index map[string]int
}

// NewSpace returns an empty variable space.
func NewSpace() *Space {
	return &Space{index: map[string]int{}}
}

// Var returns the index for name, allocating one if needed.
func (s *Space) Var(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	i := len(s.names)
	s.names = append(s.names, name)
	s.index[name] = i
	return i
}

// Lookup returns the index for name and whether it exists.
func (s *Space) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Name returns the name of variable i.
func (s *Space) Name(i int) string {
	if i < 0 || i >= len(s.names) {
		return fmt.Sprintf("v%d", i)
	}
	return s.names[i]
}

// Names returns all variable names in index order.
func (s *Space) Names() []string { return append([]string(nil), s.names...) }

// Dim returns the number of variables.
func (s *Space) Dim() int { return len(s.names) }

// ---------------------------------------------------------------------------
// Expressions

// Expr is a linear expression sum(coef_i * x_i) + c with exact integer
// coefficients. The zero value is the constant 0.
//
// An Expr is never written after it is built: every operation returns a
// new value, which may share its coefficient map and its big.Int values
// with its operands. So Exprs, and the Constraints, Systems and DNFs made
// of them, are passed and stored without copying.
type Expr struct {
	coef  map[int]*big.Int // nonzero coefficients only
	konst *big.Int         // nil is 0
}

// Term is one product k*x_V of an expression built by NewExpr.
type Term struct {
	V int
	K *big.Int
}

// small holds the values -smallMax..smallMax, shared by every expression
// that has one of them as a coefficient or constant. Like every value
// Const and Coef return, they are never modified.
const smallMax = 16

var small = func() (s [2*smallMax + 1]*big.Int) {
	for i := range s {
		s[i] = big.NewInt(int64(i - smallMax))
	}
	return s
}()

var zero, one, minusOne = small[smallMax], small[smallMax+1], small[smallMax-1]

// own returns a value equal to k that no caller can write: a shared small
// value or a copy.
func own(k *big.Int) *big.Int {
	if k.IsInt64() {
		if v := k.Int64(); -smallMax <= v && v <= smallMax {
			return small[v+smallMax]
		}
	}
	return new(big.Int).Set(k)
}

// NewExpr returns konst + sum(t.K * x_t.V) over terms; a nil konst is 0.
// It copies konst and every coefficient (see own), so the caller may reuse
// them. Zero coefficients are dropped; the variables must be distinct.
func NewExpr(konst *big.Int, terms ...Term) Expr {
	var e Expr
	if konst != nil && konst.Sign() != 0 {
		e.konst = own(konst)
	}
	for _, t := range terms {
		if t.K.Sign() == 0 {
			continue
		}
		if e.coef == nil {
			e.coef = make(map[int]*big.Int, len(terms))
		}
		e.coef[t.V] = own(t.K)
	}
	return e
}

// ConstExpr returns the constant expression c.
func ConstExpr(c int64) Expr {
	if c == 0 {
		return Expr{}
	}
	return Expr{konst: big.NewInt(c)}
}

// VarExpr returns the expression 1*x_v.
func VarExpr(v int) Expr {
	return Expr{coef: map[int]*big.Int{v: one}}
}

// Const returns the constant term. The result is shared and must not be
// modified.
func (e Expr) Const() *big.Int {
	if e.konst == nil {
		return zero
	}
	return e.konst
}

// Coef returns the coefficient of variable v (zero if absent). The result
// is shared and must not be modified.
func (e Expr) Coef(v int) *big.Int {
	if k, ok := e.coef[v]; ok {
		return k
	}
	return zero
}

// Add returns e + f.
func (e Expr) Add(f Expr) Expr { return e.addScaled(f, one, -1) }

// Sub returns e - f.
func (e Expr) Sub(f Expr) Expr { return e.addScaled(f, minusOne, -1) }

// Scale returns k*e.
func (e Expr) Scale(k int64) Expr {
	switch k {
	case 0:
		return Expr{}
	case 1:
		return e
	}
	return Expr{}.addScaled(e, big.NewInt(k), -1)
}

// IsConst reports whether e has no variable terms.
func (e Expr) IsConst() bool { return len(e.coef) == 0 }

// Vars returns the variables with nonzero coefficients, sorted.
func (e Expr) Vars() []int {
	var vs []int
	for v := range e.coef {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// Subst returns e with variable v replaced by the expression r.
func (e Expr) Subst(v int, r Expr) Expr {
	k, ok := e.coef[v]
	if !ok {
		return e
	}
	return e.addScaled(r, k, v)
}

// addScaled returns e + k*f without e's term in variable drop (-1 drops
// none). A coefficient the sum leaves as it is stays shared, and so does a
// map the sum leaves as it is.
func (e Expr) addScaled(f Expr, k *big.Int, drop int) Expr {
	r := Expr{konst: mulAdd(e.konst, f.konst, k)}
	_, dropped := e.coef[drop]
	switch {
	case len(f.coef) == 0 && !dropped:
		r.coef = e.coef
		return r
	case len(e.coef) == 0 && k == one:
		r.coef = f.coef
		return r
	}
	r.coef = make(map[int]*big.Int, len(e.coef)+len(f.coef))
	for v, c := range e.coef {
		if v != drop {
			r.coef[v] = c
		}
	}
	for v, c := range f.coef {
		if s := mulAdd(r.coef[v], c, k); s != nil {
			r.coef[v] = s
		} else {
			delete(r.coef, v)
		}
	}
	return r
}

// mulAdd returns x + k*y, where a nil x or y is 0 and a nil result is 0.
// It returns x itself when y is 0 and never writes an operand.
func mulAdd(x, y, k *big.Int) *big.Int {
	if y == nil || y.Sign() == 0 {
		return x
	}
	if k == one && x == nil {
		return y
	}
	t := new(big.Int).Mul(y, k)
	if x != nil {
		t.Add(t, x)
	}
	if t.Sign() == 0 {
		return nil
	}
	return t
}

// Eval evaluates e at the given integer point (indexed by variable).
func (e Expr) Eval(point []*big.Int) *big.Int {
	r := new(big.Int).Set(e.Const())
	for v, k := range e.coef {
		if v < len(point) && point[v] != nil {
			t := new(big.Int).Mul(k, point[v])
			r.Add(r, t)
		}
	}
	return r
}

// String renders e using names from sp (or v<i> when sp is nil).
func (e Expr) String(sp *Space) string {
	var parts []string
	for _, v := range e.Vars() {
		k := e.coef[v]
		name := fmt.Sprintf("v%d", v)
		if sp != nil {
			name = sp.Name(v)
		}
		switch {
		case k.Cmp(one) == 0:
			parts = append(parts, name)
		case k.Cmp(minusOne) == 0:
			parts = append(parts, "-"+name)
		default:
			parts = append(parts, k.String()+"*"+name)
		}
	}
	c := e.Const()
	if c.Sign() != 0 || len(parts) == 0 {
		parts = append(parts, c.String())
	}
	s := strings.Join(parts, " + ")
	return strings.ReplaceAll(s, "+ -", "- ")
}

// ---------------------------------------------------------------------------
// Constraints

// Rel is a constraint relation.
type Rel int

// Constraint relations: the expression is {==, >=} 0. Strict inequalities
// are normalized away at construction because all variables are integers
// (e > 0 becomes e - 1 >= 0).
const (
	Eq Rel = iota
	Ge
)

func (r Rel) String() string {
	if r == Eq {
		return "="
	}
	return ">="
}

// Constraint asserts E Rel 0.
type Constraint struct {
	E   Expr
	Rel Rel
}

// NewGe returns the constraint e >= 0.
func NewGe(e Expr) Constraint { return Constraint{E: e, Rel: Ge} }

// NewGt returns e > 0 as the integer constraint e - 1 >= 0, which shares
// e's coefficients.
func NewGt(e Expr) Constraint {
	return Constraint{E: Expr{coef: e.coef, konst: mulAdd(e.konst, minusOne, one)}, Rel: Ge}
}

// NewEq returns the constraint e == 0.
func NewEq(e Expr) Constraint { return Constraint{E: e, Rel: Eq} }

// Negate returns the integer negation of c as a disjunction of constraints:
// not(e == 0) is {e >= 1} or {-e >= 1}; not(e >= 0) is {-e >= 1}.
func (c Constraint) Negate() []Constraint {
	switch c.Rel {
	case Eq:
		return []Constraint{NewGt(c.E), NewGt(c.E.Scale(-1))}
	default:
		return []Constraint{NewGt(c.E.Scale(-1))}
	}
}

// Holds reports whether the constraint is satisfied at the integer point.
func (c Constraint) Holds(point []*big.Int) bool {
	v := c.E.Eval(point)
	if c.Rel == Eq {
		return v.Sign() == 0
	}
	return v.Sign() >= 0
}

// IsTautology reports whether c holds for all assignments (constant and
// satisfied).
func (c Constraint) IsTautology() bool {
	if !c.E.IsConst() {
		return false
	}
	if c.Rel == Eq {
		return c.E.Const().Sign() == 0
	}
	return c.E.Const().Sign() >= 0
}

// IsContradiction reports whether c fails for all assignments.
func (c Constraint) IsContradiction() bool {
	if !c.E.IsConst() {
		return false
	}
	if c.Rel == Eq {
		return c.E.Const().Sign() != 0
	}
	return c.E.Const().Sign() < 0
}

// String renders the constraint in "e >= 0" normal form but moving the
// constant to the right-hand side for readability: "x - y >= 3".
func (c Constraint) String(sp *Space) string {
	lhs := Expr{coef: c.E.coef}
	k := new(big.Int).Neg(c.E.Const())
	return fmt.Sprintf("%s %s %s", lhs.String(sp), c.Rel, k)
}

// System is a conjunction of constraints. Like its constraints, a System
// is never written once built: to extend one that may be shared, append to
// a fresh slice or through a full slice expression (s[:len(s):len(s)]),
// never into its spare capacity.
type System []Constraint

// String renders the system.
func (s System) String(sp *Space) string {
	var parts []string
	for _, c := range s {
		parts = append(parts, c.String(sp))
	}
	return strings.Join(parts, " && ")
}
