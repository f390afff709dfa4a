package arena

import "testing"

func TestNilArena(t *testing.T) {
	var a *Arena
	s := a.Int64s(4)
	if len(s) != 4 {
		t.Fatalf("nil arena Int64s: len %d", len(s))
	}
	a.PutInt64s(s)
	u := a.Uint64s(2)
	if len(u) != 2 {
		t.Fatalf("nil arena Uint64s: len %d", len(u))
	}
	a.PutUint64s(u)
	if a.Recycled() != 0 {
		t.Fatalf("nil arena recycled %d", a.Recycled())
	}
}

func TestRecycleZeroesAndCounts(t *testing.T) {
	a := New()
	s := a.Int64s(3)
	s[0], s[1], s[2] = 7, 8, 9
	a.PutInt64s(s)
	if got := a.Recycled(); got != 0 {
		t.Fatalf("recycled before reuse: %d", got)
	}
	r := a.Int64s(3)
	if &r[0] != &s[0] {
		t.Fatalf("expected recycled backing store")
	}
	for i, x := range r {
		if x != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %d", i, x)
		}
	}
	if got := a.Recycled(); got != 24 {
		t.Fatalf("recycled bytes = %d, want 24", got)
	}
	// A different size misses the free list.
	q := a.Int64s(4)
	if len(q) != 4 || a.Recycled() != 24 {
		t.Fatalf("size-4 get should be a fresh allocation")
	}

	u := a.Uint64s(2)
	u[0] = 1
	a.PutUint64s(u)
	w := a.Uint64s(2)
	if &w[0] != &u[0] || w[0] != 0 {
		t.Fatalf("uint64 recycling broken")
	}
	if got := a.Recycled(); got != 40 {
		t.Fatalf("recycled bytes = %d, want 40", got)
	}
}

func TestPutTruncatedSliceRestoresCap(t *testing.T) {
	a := New()
	s := a.Int64s(8)
	a.PutInt64s(s[:3]) // stored under its capacity, not its length
	r := a.Int64s(8)
	if &r[0] != &s[0] {
		t.Fatalf("truncated put should land in the cap bucket")
	}
}

func TestLargeCapacityNotRecycled(t *testing.T) {
	a := New()
	s := a.Int64s(smallCaps)
	if len(s) != smallCaps {
		t.Fatalf("Int64s(%d): len %d", smallCaps, len(s))
	}
	a.PutInt64s(s)
	if r := a.Int64s(smallCaps); &r[0] == &s[0] {
		t.Fatalf("capacity-%d int64 slice was recycled", smallCaps)
	}
	u := a.Uint64s(smallCaps)
	a.PutUint64s(u)
	if r := a.Uint64s(smallCaps); &r[0] == &u[0] {
		t.Fatalf("capacity-%d uint64 slice was recycled", smallCaps)
	}
	if got := a.Recycled(); got != 0 {
		t.Fatalf("recycled bytes = %d, want 0", got)
	}
}
