// Package arena provides a run-scoped free-list allocator for the fixed
// slice shapes the polyhedra kernel churns through: int64 coefficient
// vectors and uint64 saturation bitsets. It exists to eliminate the
// per-operation allocation counts BENCH_numeric.json records on the
// Chernikova hot path.
//
// An Arena is instance-based per-run state, exactly like the substrate
// Configs that carry it: there is no package-level pool, so concurrent
// analyses cannot share (or race on) recycled memory — `globalmut`
// stays clean by construction. It is NOT safe for concurrent use; the
// driver creates one arena per procedure and frees the whole thing at
// the procedure boundary by dropping the reference.
//
// A nil *Arena is valid and means "no recycling": every method falls
// back to plain make/garbage collection, so default-configured
// substrates behave exactly as before.
//
// Ownership discipline: a slice handed to PutInt64s/PutUint64s must be
// provably dead — no other live structure may reference it. The
// substrate release points are enumerated case by case in DESIGN.md §9;
// the differential fuzzers run with the arena enabled so an aliasing
// mistake shows up as a divergence from the reference kernel.
package arena

// smallCaps bounds the capacities the free lists serve; the hot shapes
// (vector length dim+1, bitset word counts) are far below it, so the
// per-Get/Put cost is an array index. A larger slice is made fresh and
// dropped by Put: on the analyzed corpus no substrate asks for one.
const smallCaps = 128

// Arena recycles []int64 and []uint64 backing stores. Free lists are
// bucketed by exact capacity: the substrates allocate in a handful of
// uniform sizes per run, so exact matching recycles nearly everything
// without fit heuristics.
type Arena struct {
	smallI [smallCaps][][]int64
	smallU [smallCaps][][]uint64

	recycled int64
}

// New returns an empty arena.
func New() *Arena {
	return &Arena{}
}

// Int64s returns a zeroed []int64 of length n, recycled when a slice of
// that exact capacity is free.
func (a *Arena) Int64s(n int) []int64 {
	s := a.Int64sUninit(n)
	if a != nil {
		clear(s)
	}
	return s
}

// Int64sUninit is Int64s without the zeroing guarantee: recycled slices
// keep their previous contents. For callers that overwrite every entry.
func (a *Arena) Int64sUninit(n int) []int64 {
	if a == nil || n == 0 || n >= smallCaps {
		return make([]int64, n)
	}
	fl := &a.smallI[n]
	k := len(*fl)
	if k == 0 {
		return make([]int64, n)
	}
	s := (*fl)[k-1]
	(*fl)[k-1] = nil
	*fl = (*fl)[:k-1]
	a.recycled += int64(n) * 8
	return s
}

// PutInt64s returns s to the free list (a slice of capacity smallCaps or
// more is dropped). The caller asserts nothing else references s.
func (a *Arena) PutInt64s(s []int64) {
	if a == nil || cap(s) == 0 || cap(s) >= smallCaps {
		return
	}
	a.smallI[cap(s)] = append(a.smallI[cap(s)], s[:cap(s)])
}

// Uint64s returns a zeroed []uint64 of length n, recycled when a slice
// of that exact capacity is free.
func (a *Arena) Uint64s(n int) []uint64 {
	s := a.Uint64sUninit(n)
	if a != nil {
		clear(s)
	}
	return s
}

// Uint64sUninit is Uint64s without the zeroing guarantee: recycled
// slices keep their previous contents.
func (a *Arena) Uint64sUninit(n int) []uint64 {
	if a == nil || n == 0 || n >= smallCaps {
		return make([]uint64, n)
	}
	fl := &a.smallU[n]
	k := len(*fl)
	if k == 0 {
		return make([]uint64, n)
	}
	s := (*fl)[k-1]
	(*fl)[k-1] = nil
	*fl = (*fl)[:k-1]
	a.recycled += int64(n) * 8
	return s
}

// PutUint64s returns s to the free list (a slice of capacity smallCaps
// or more is dropped). The caller asserts nothing else references s.
func (a *Arena) PutUint64s(s []uint64) {
	if a == nil || cap(s) == 0 || cap(s) >= smallCaps {
		return
	}
	a.smallU[cap(s)] = append(a.smallU[cap(s)], s[:cap(s)])
}

// Recycled returns the number of bytes served out of the free lists so
// far. The count is deterministic for a single-goroutine run: recycling
// decisions depend only on the operation sequence, never on timing.
func (a *Arena) Recycled() int64 {
	if a == nil {
		return 0
	}
	return a.recycled
}
