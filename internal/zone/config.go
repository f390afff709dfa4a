package zone

import (
	"math/big"

	"repro/internal/arena"
	"repro/internal/budget"
)

// Config carries per-run knobs for the zone domain. There is no mutable
// package-level configuration: concurrent analyses each thread their own
// Config, so they cannot race. A nil *Config is valid and means defaults
// (hybrid kernel, no budget, no arena); DBMs propagate the Config of the
// receiver (falling back to the other operand) through all operations.
type Config struct {
	// Token, when non-nil, is polled before each closure: once it is
	// exhausted the closure is skipped, leaving a partially tightened
	// matrix — a sound over-approximation of the canonical form.
	Token *budget.Token
	// PureBig forces the exact big.Int tier everywhere and disables
	// demotion. The differential tests use it to build a reference
	// kernel; it must never be set in production code. The reference
	// kernel also never reuses closures (no closed flag, no incremental
	// repair), so it maximizes divergence detection against the
	// optimized paths.
	PureBig bool
	// Arena, when non-nil, recycles dense matrix rows and repair
	// scratch buffers across the run. Arenas are not safe for
	// concurrent use; the driver threads one per procedure.
	Arena *arena.Arena
}

func (c *Config) pure() bool { return c != nil && c.PureBig }

func (c *Config) token() *budget.Token {
	if c == nil {
		return nil
	}
	return c.Token
}

func (c *Config) ar() *arena.Arena {
	if c == nil {
		return nil
	}
	return c.Arena
}

// SparseSelections always returns (0, 0). It once counted the closure
// decisions between a dense and a sparse machine representation; the
// sparse form is gone, and the method stays because the frozen benchmark
// harness (cssvbench) still reads it for its zone.sparse_frac metric.
func (c *Config) SparseSelections() (sparse, dense int64) {
	return 0, 0
}

// Universe returns the unconstrained zone over n variables, governed by
// c. The all-infinity matrix is its own shortest-path closure, so it
// starts out closed.
func (c *Config) Universe(n int) *DBM {
	if c.pure() {
		return c.newExact(n)
	}
	d := c.newDense(n)
	d.closed = true
	return d
}

// Bottom returns the empty zone over n variables, governed by c.
func (c *Config) Bottom(n int) *DBM {
	d := c.Universe(n)
	d.empty = true
	return d
}

// newDense returns a machine-tier dense all-infinity matrix (not marked
// closed: internal callers overwrite cells directly).
func (c *Config) newDense(n int) *DBM {
	d := &DBM{n: n, cfg: c}
	ar := c.ar()
	d.mw = make([][]int64, n+1)
	for i := range d.mw {
		r := ar.Int64s(n + 1)
		for j := range r {
			r[j] = noBound
		}
		d.mw[i] = r
	}
	return d
}

// newExact returns an exact-tier all-infinity matrix.
func (c *Config) newExact(n int) *DBM {
	d := &DBM{n: n, cfg: c}
	d.mx = make([][]*big.Int, n+1)
	for i := range d.mx {
		d.mx[i] = make([]*big.Int, n+1)
	}
	return d
}
