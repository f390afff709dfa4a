// Package analysis runs sound forward abstract interpretation over the
// integer programs produced by C2IP (paper §3.5): a worklist fixpoint with
// widening at loop heads and optional narrowing, followed by assert
// checking with counter-example generation (Fig. 8).
//
// The engine is parametric in the numeric abstract domain; the polyhedra
// domain of Cousot–Halbwachs is the default (as in the paper), with
// interval and zone domains available for the precision/cost ablation.
package analysis

import (
	"math/big"

	"repro/internal/linear"
	"repro/internal/polyhedra"
)

// State is an abstract element over n integer variables.
type State interface {
	// Join returns the least upper bound (or an over-approximation).
	Join(State) State
	// Widen extrapolates from the receiver (previous iterate) to the
	// argument (next iterate).
	Widen(State) State
	// WidenSimple is a coarser widening with guaranteed finite chains; the
	// engine escalates to it when Widen refuses to stabilize.
	WidenSimple(State) State
	// MeetSystem intersects with a conjunction of constraints.
	MeetSystem(linear.System) State
	// Assign over-approximates v := e.
	Assign(v int, e linear.Expr) State
	// Havoc over-approximates v := unknown.
	Havoc(v int) State
	// Includes reports whether the argument is contained in the receiver.
	Includes(State) bool
	// IsEmpty reports unreachability.
	IsEmpty() bool
	// SameRepr reports, building nothing, whether the argument has the
	// receiver's representation and so behaves identically in every later
	// operation. A domain that cannot tell (intervals) answers false, and
	// stale-only narrowing then treats each of its states as new.
	SameRepr(State) bool
	// Entails reports whether every concrete state satisfies c.
	Entails(c linear.Constraint) bool
	// System returns a constraint representation (used for reporting and
	// contract derivation).
	System() linear.System
	// Sample returns a point inside the state, or nil when empty. Only the
	// polyhedra domain produces exact vertices; weaker domains may return
	// any contained point.
	Sample() []*big.Rat
	// Bounds returns the tightest [lo, hi] interval of variable v implied
	// by the state; nil pointers denote unboundedness. Bounds is canonical
	// — it depends only on the concretization, not on the representation —
	// which the counter-example construction relies on.
	Bounds(v int) (lo, hi *big.Rat)
	// String renders the state with variable names.
	String(sp *linear.Space) string
}

// Domain is a factory for abstract states.
type Domain interface {
	Name() string
	Universe(n int) State
	Bottom(n int) State
}

// ---------------------------------------------------------------------------
// Polyhedra adapter

// PolyDomain is the convex-polyhedra domain (the paper's choice). Config,
// when non-nil, carries the run's ray cap, budget token and drop counter;
// the zero value is the default-configured domain.
type PolyDomain struct {
	Config *polyhedra.Config
}

// Name implements Domain.
func (PolyDomain) Name() string { return "polyhedra" }

// Universe implements Domain.
func (d PolyDomain) Universe(n int) State { return polyState{d.Config.Universe(n)} }

// Bottom implements Domain.
func (d PolyDomain) Bottom(n int) State { return polyState{d.Config.Bottom(n)} }

type polyState struct{ p *polyhedra.Poly }

func (s polyState) Join(o State) State {
	return polyState{s.p.Join(o.(polyState).p)}
}
func (s polyState) Widen(o State) State {
	return polyState{s.p.Widen(o.(polyState).p)}
}
func (s polyState) WidenSimple(o State) State {
	return polyState{s.p.WidenSimple(o.(polyState).p)}
}
func (s polyState) MeetSystem(sys linear.System) State {
	return polyState{s.p.MeetSystem(sys)}
}
func (s polyState) Assign(v int, e linear.Expr) State {
	return polyState{s.p.Assign(v, e)}
}
func (s polyState) Havoc(v int) State { return polyState{s.p.Havoc(v)} }
func (s polyState) Includes(o State) bool {
	return s.p.Includes(o.(polyState).p)
}
func (s polyState) IsEmpty() bool                    { return s.p.IsEmpty() }
func (s polyState) SameRepr(o State) bool            { return s.p.SameRepr(o.(polyState).p) }
func (s polyState) Entails(c linear.Constraint) bool { return s.p.Entails(c) }
func (s polyState) System() linear.System            { return s.p.System() }
func (s polyState) Sample() []*big.Rat               { return s.p.SamplePoint() }
func (s polyState) Bounds(v int) (lo, hi *big.Rat)   { return s.p.Bounds(v) }
func (s polyState) String(sp *linear.Space) string   { return s.p.String(sp) }

// StateKey is the hook the invariant-representation golden hashes.
func (s polyState) StateKey() (string, bool) { return s.p.Key() }

// Poly exposes the underlying polyhedron (used by derivation).
func (s polyState) Poly() *polyhedra.Poly { return s.p }
