package polyhedra

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/budget"
	"repro/internal/linear"
)

// Config carries per-run knobs and statistics for the polyhedra domain.
// There is deliberately no mutable package-level configuration: concurrent
// analyses each thread their own Config so they cannot race or
// cross-contaminate each other's precision accounting.
//
// A nil *Config is valid and means defaults (DefaultMaxRays, hybrid
// kernel, no budget); every method is nil-safe. Polyhedra propagate the
// Config of the receiver (falling back to the other operand) through all
// operations, so constructing the entry states with a Config is enough to
// govern a whole fixpoint computation.
type Config struct {
	// MaxRays caps intermediate generator counts during the
	// constraint-to-generator conversion; exceeding it drops constraints
	// (a sound over-approximation). 0 means DefaultMaxRays; negative
	// means unlimited.
	MaxRays int
	// Token, when non-nil, is polled during conversions: once it is
	// exhausted remaining constraints are dropped (again a sound
	// over-approximation), so long-running operations wind down quickly.
	Token *budget.Token
	// PureBig forces every vector onto the exact big.Int tier and
	// disables demotion. The differential tests use it to build a
	// reference kernel; it must never be set in production code.
	PureBig bool
	// Arena is not read: a conversion keeps its working vectors in
	// per-cone slabs, pooled across conversions, and no operation draws
	// from or returns to an arena any more (DESIGN §9.2). The field stays
	// because the benchmark harness sets it.
	Arena *arena.Arena

	// dropped counts constraints dropped at the ray cap in this run.
	dropped atomic.Int64
}

// DroppedConstraints returns the number of constraints dropped at the ray
// cap under this Config. Budget-induced drops are not counted: they depend
// on wall-clock timing and would make reports nondeterministic.
func (c *Config) DroppedConstraints() int64 {
	if c == nil {
		return 0
	}
	return c.dropped.Load()
}

func (c *Config) maxRays() int {
	if c == nil || c.MaxRays == 0 {
		return DefaultMaxRays
	}
	if c.MaxRays < 0 {
		return 0 // unlimited
	}
	return c.MaxRays
}

func (c *Config) pure() bool { return c != nil && c.PureBig }

func (c *Config) token() *budget.Token {
	if c == nil {
		return nil
	}
	return c.Token
}

func (c *Config) noteDropped(n int) {
	if c != nil && n > 0 {
		c.dropped.Add(int64(n))
	}
}

// Universe returns the unconstrained polyhedron over n variables,
// governed by c.
func (c *Config) Universe(n int) *Poly {
	return &Poly{n: n, cons: []row{}, cfg: c}
}

// Bottom returns the empty polyhedron over n variables, governed by c.
func (c *Config) Bottom(n int) *Poly {
	return &Poly{n: n, empty: true, cfg: c}
}

// FromSystem returns the polyhedron of the conjunction sys over n
// variables, governed by c.
func (c *Config) FromSystem(sys linear.System, n int) *Poly {
	return c.Universe(n).MeetSystem(sys)
}
