package zone

import (
	"math/big"

	"repro/internal/arena"
	"repro/internal/budget"
)

// Config carries per-run knobs for the zone domain. There is no mutable
// package-level configuration: concurrent analyses each thread their own
// Config, so they cannot race. A nil *Config is valid and means defaults
// (hybrid kernel, no budget); DBMs propagate the Config of the receiver
// (falling back to the other operand) through all operations.
type Config struct {
	// Token, when non-nil, is polled before each closure and each
	// repair: once it is exhausted they are skipped, leaving a partially
	// tightened matrix — a sound over-approximation of the canonical form.
	Token *budget.Token
	// PureBig forces the exact big.Int tier everywhere and disables
	// demotion. The differential tests use it to build a reference
	// kernel; it must never be set in production code. The reference
	// kernel also never reuses closures (no closed flag, no repair on
	// write), so it maximizes divergence detection against the
	// optimized paths.
	PureBig bool
	// Arena is never read: the zone allocates its matrices with make. The
	// field stays because the frozen benchmark harness (cssvbench) still
	// sets it.
	Arena *arena.Arena
}

func (c *Config) pure() bool { return c != nil && c.PureBig }

func (c *Config) token() *budget.Token {
	if c == nil {
		return nil
	}
	return c.Token
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

// Bottom returns the empty zone over n variables, governed by c. It holds
// no matrix: every operation checks emptiness before reading one.
func (c *Config) Bottom(n int) *DBM {
	return &DBM{n: n, empty: true, cfg: c}
}

// newDense returns a machine-tier dense all-infinity matrix (not marked
// closed: internal callers overwrite cells directly).
func (c *Config) newDense(n int) *DBM {
	d := &DBM{n: n, cfg: c, mw: denseRows(n + 1)}
	for _, r := range d.mw {
		for j := range r {
			r[j] = noBound
		}
	}
	return d
}

// denseRows returns size rows of size cells over one backing array.
func denseRows(size int) [][]int64 {
	buf := make([]int64, size*size)
	rows := make([][]int64, size)
	for i := range rows {
		rows[i] = buf[i*size : (i+1)*size]
	}
	return rows
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
