package core

import (
	"testing"

	"repro/internal/corec"
	"repro/internal/pointer"
)

const ptcacheSrc = `
char g[8];
void f(char *s) requires (is_nullt(s)) { char *p; p = g; }
void h(void) { char *q; q = g; }
`

func TestCachedPointerAnalyzeSharesResults(t *testing.T) {
	FlushCaches()
	prog, err := Prepare("t.c", ptcacheSrc)
	if err != nil {
		t.Fatal(err)
	}
	r1, hit1, _ := cachedPointerAnalyze(prog, pointer.Inclusion, 0)
	if hit1 {
		t.Errorf("first analysis reported a cache hit")
	}
	r2, hit2, _ := cachedPointerAnalyze(prog, pointer.Inclusion, 0)
	if !hit2 {
		t.Errorf("second analysis missed the cache")
	}
	if r1 != r2 {
		t.Errorf("cache returned a different result object for the same input")
	}
	// A different mode is a different key.
	r3, hit3, _ := cachedPointerAnalyze(prog, pointer.Unification, 0)
	if hit3 {
		t.Errorf("different mode reported a cache hit")
	}
	if r3 == r1 {
		t.Errorf("different mode shared the inclusion result")
	}
	// A structurally different program is a different key.
	prog2, err := Prepare("t.c", ptcacheSrc+"\nvoid k(void) { char *r; r = g; }")
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := cachedPointerAnalyze(prog2, pointer.Inclusion, 0); hit {
		t.Errorf("different program reported a cache hit")
	}
	FlushCaches()
	if _, hit, _ := cachedPointerAnalyze(prog, pointer.Inclusion, 0); hit {
		t.Errorf("FlushCaches did not empty the memo")
	}
}

func TestRunStatsAccounting(t *testing.T) {
	FlushCaches()
	// Sequential run: Space measured, stats filled in.
	rep, err := AnalyzeSource("t.c", ptcacheSrc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Workers != 1 {
		t.Errorf("Workers = %d, want 1", rep.Stats.Workers)
	}
	if rep.Stats.Wall <= 0 || rep.Stats.SequentialCPU <= 0 {
		t.Errorf("timings not measured: %+v", rep.Stats)
	}
	if got := rep.Stats.PointerCacheHits + rep.Stats.PointerCacheMisses; got != len(rep.Procs) {
		t.Errorf("pointer cache counters %d, want one per procedure (%d)", got, len(rep.Procs))
	}
	for i := range rep.Procs {
		if rep.Procs[i].Space == 0 {
			t.Errorf("%s: Space not measured under Workers=1", rep.Procs[i].Name)
		}
	}
	// Concurrent run: Space reported as 0 (documented fallback).
	rep2, err := AnalyzeSource("t.c", ptcacheSrc, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Stats.Workers != 2 {
		t.Errorf("Workers = %d, want 2", rep2.Stats.Workers)
	}
	for i := range rep2.Procs {
		if rep2.Procs[i].Space != 0 {
			t.Errorf("%s: Space = %d under Workers=2, want 0", rep2.Procs[i].Name, rep2.Procs[i].Space)
		}
	}
	// The libc header is certainly cached by now.
	if !rep2.Stats.LibcHeaderReused {
		t.Errorf("LibcHeaderReused = false on a repeated run")
	}
}

// precisionDropSrc reaches a state whose polyhedron is a 3-cube over the
// parameters: converting it to generators under a ray cap of 1 must drop
// constraints.
const precisionDropSrc = `
void f(int a, int b, int c) {
    int s;
    if (a < 0) goto done;
    if (a > 5) goto done;
    if (b < 0) goto done;
    if (b > 5) goto done;
    if (c < 0) goto done;
    if (c > 5) goto done;
    s = a + b;
    s = s + c;
done:
    s = 0;
}
`

func TestPrecisionDropsSurfaced(t *testing.T) {
	FlushCaches()
	rep, err := AnalyzeSource("t.c", precisionDropSrc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.PrecisionDrops != 0 {
		t.Errorf("uncapped run reported %d precision drops, want 0", rep.Stats.PrecisionDrops)
	}
	FlushCaches()
	rep2, err := AnalyzeSource("t.c", precisionDropSrc, Options{Workers: 1, MaxRays: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Stats.PrecisionDrops == 0 {
		t.Errorf("capped run reported no precision drops; the cap must be surfaced in Stats")
	}
}

// TestPtCacheEviction drives the memo past a tiny bound and checks FIFO
// eviction: the oldest entry leaves first, later entries stay warm, and
// the evicted count is reported to the caller.
func TestPtCacheEviction(t *testing.T) {
	FlushCaches()
	defer FlushCaches()
	progs := make([]*corec.Program, 3)
	for i := range progs {
		src := ptcacheSrc
		for j := 0; j < i; j++ {
			src += "\nchar extra" + string(rune('a'+j)) + "[4];"
		}
		p, err := Prepare("t.c", src)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	const limit = 2
	if _, _, ev := cachedPointerAnalyze(progs[0], pointer.Inclusion, limit); ev != 0 {
		t.Errorf("first insert evicted %d entries", ev)
	}
	if _, _, ev := cachedPointerAnalyze(progs[1], pointer.Inclusion, limit); ev != 0 {
		t.Errorf("second insert evicted %d entries (limit %d)", ev, limit)
	}
	if _, _, ev := cachedPointerAnalyze(progs[2], pointer.Inclusion, limit); ev != 1 {
		t.Errorf("third insert evicted %d entries, want exactly 1", ev)
	}
	// progs[0] was oldest and must be gone; progs[1] and progs[2] survive.
	if _, hit, _ := cachedPointerAnalyze(progs[2], pointer.Inclusion, limit); !hit {
		t.Errorf("newest entry was evicted")
	}
	if _, hit, _ := cachedPointerAnalyze(progs[1], pointer.Inclusion, limit); !hit {
		t.Errorf("second-newest entry was evicted")
	}
	if _, hit, ev := cachedPointerAnalyze(progs[0], pointer.Inclusion, limit); hit {
		t.Errorf("oldest entry survived past the bound")
	} else if ev != 1 {
		t.Errorf("re-inserting the evicted entry evicted %d entries, want 1", ev)
	}
	// A negative limit means unbounded: nothing is ever evicted.
	FlushCaches()
	for i, p := range progs {
		if _, _, ev := cachedPointerAnalyze(p, pointer.Inclusion, -1); ev != 0 {
			t.Errorf("unbounded insert %d evicted %d entries", i, ev)
		}
	}
	for i, p := range progs {
		if _, hit, _ := cachedPointerAnalyze(p, pointer.Inclusion, -1); !hit {
			t.Errorf("unbounded cache lost entry %d", i)
		}
	}
}
