// Shared-phase caching for the parallel driver. The whole-program
// flow-insensitive pointer analysis (paper §3.3.2) depends only on the
// renormalized program text and the analysis mode, and its result is
// treated as read-only by every consumer (ppt.Build copies what it
// refines), so it can be memoized process-wide: repeated runs over the
// same translation unit in one process (cssv-serve, the table5 loops)
// share one pointer.Analyze result. Within a single run the memo does
// not hit, because each procedure's contract inlining yields a distinct
// program.
package core

import (
	"crypto/sha256"
	"io"
	"sort"
	"sync"

	"repro/internal/cast"
	"repro/internal/corec"
	"repro/internal/ctypes"
	"repro/internal/pointer"
)

// ptKey identifies a pointer-analysis input: the mode, the layout target
// (node sizes depend on it), plus a structural hash of the renormalized
// program (rendered declarations including contracts and bodies, plus the
// string-literal table). Rendering is deterministic, so structurally equal
// programs collide on purpose.
type ptKey struct {
	mode   pointer.Mode
	target ctypes.Target
	hash   [sha256.Size]byte
}

// defaultPtCacheMax is the memo bound the driver uses (it passes limit
// 0 to cachedPointerAnalyze). Entries are evicted in
// insertion order (FIFO) once the bound is reached — not dropped
// wholesale, so a long-running embedder cycling through many translation
// units keeps its recent working set warm.
const defaultPtCacheMax = 128

type ptEntry struct {
	once sync.Once
	res  *pointer.Result
}

var ptCache = struct {
	sync.Mutex
	m map[ptKey]*ptEntry
	// order lists live keys oldest first; it drives FIFO eviction.
	order []ptKey
}{m: map[ptKey]*ptEntry{}}

func pointerKey(prog *corec.Program, mode pointer.Mode) ptKey {
	h := sha256.New()
	io.WriteString(h, cast.Fprint(prog.File))
	names := make([]string, 0, len(prog.Strings))
	for name := range prog.Strings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		io.WriteString(h, name)
		h.Write([]byte{0})
		io.WriteString(h, prog.Strings[name])
		h.Write([]byte{0})
	}
	k := ptKey{mode: mode, target: prog.Layout.Target()}
	h.Sum(k.hash[:0])
	return k
}

// cachedPointerAnalyze memoizes pointer.Analyze on (program shape, mode).
// Concurrent calls with the same key block on one computation instead of
// duplicating it. limit bounds the memo (0 = defaultPtCacheMax, negative =
// unbounded); on overflow the oldest entries are evicted first. The second
// result reports whether this was a cache hit, the third how many entries
// were evicted to make room.
func cachedPointerAnalyze(prog *corec.Program, mode pointer.Mode, limit int) (*pointer.Result, bool, int) {
	max := limit
	if max == 0 {
		max = defaultPtCacheMax
	}
	k := pointerKey(prog, mode)
	evicted := 0
	ptCache.Lock()
	e, hit := ptCache.m[k]
	if !hit {
		if max > 0 {
			for len(ptCache.m) >= max && len(ptCache.order) > 0 {
				old := ptCache.order[0]
				ptCache.order = ptCache.order[1:]
				if _, ok := ptCache.m[old]; ok {
					delete(ptCache.m, old)
					evicted++
				}
			}
		}
		e = &ptEntry{}
		ptCache.m[k] = e
		ptCache.order = append(ptCache.order, k)
	}
	ptCache.Unlock()
	e.once.Do(func() { e.res = pointer.Analyze(prog, mode) })
	return e.res, hit, evicted
}

// FlushCaches empties the process-wide memoization caches (currently the
// pointer-analysis memo; the parsed libc header is a handful of prototypes
// and is kept). Long-running embedders can call it to bound memory, and
// benchmarks use it to measure cold-cache cost.
func FlushCaches() {
	ptCache.Lock()
	ptCache.m = map[ptKey]*ptEntry{}
	ptCache.order = nil
	ptCache.Unlock()
}
