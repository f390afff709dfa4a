package polyhedra

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestConeRecordsHoldNoPointers holds the records cone.add copies around,
// and the element types of its double buffer, to plain words: a pointer
// field would bring back the write barriers that pointer-free storage
// removed, and make the collector scan the buffers.
func TestConeRecordsHoldNoPointers(t *testing.T) {
	var b coneBufs
	for _, typ := range []reflect.Type{
		reflect.TypeOf(ray{}),
		reflect.TypeOf(vref(0)),
		reflect.TypeOf(classified{}),
		reflect.TypeOf(b.lines).Elem(),
		reflect.TypeOf(b.rays).Elem(),
		reflect.TypeOf(b.spare).Elem(),
		reflect.TypeOf(b.plusBuf).Elem(),
		reflect.TypeOf(b.minusBuf).Elem(),
		reflect.TypeOf(b.words).Elem(),
		reflect.TypeOf(b.bits).Elem(),
		reflect.TypeOf(b.from).Elem(),
	} {
		if path, ok := pointerIn(typ, typ.Name()); ok {
			t.Errorf("%s holds a pointer, slice, map, string or interface at %s", typ, path)
		}
	}
}

// pointerIn returns the path to the first field of typ that is or holds a
// pointer, a slice, a map, a string or an interface.
func pointerIn(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return path, true
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerIn(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
	}
	return "", false
}

// coneState renders what a cone holds: its constraint count, each line
// and ray record with its vector's value and tier and its saturation set,
// and which slots of either slab are in use. It fails if a slot is both
// free and in use, in use twice, or neither.
func coneState(t *testing.T, c *cone) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "ncons=%d exact=%d", c.ncons, len(c.exact))
	words := make([]int, len(c.words)/c.dim)
	bits := make([]int, len(c.bits)/c.nw)
	use := func(v vref) {
		if v >= 0 {
			words[v]++
		}
	}
	for _, l := range c.lines {
		use(l)
		fmt.Fprintf(&sb, "\nline %d %s", l, vecState(c.vec(l)))
	}
	for _, r := range c.rays {
		use(r.v)
		bits[r.sat]++
		fmt.Fprintf(&sb, "\nray %d/%d %s sat=%v", r.v, r.sat, vecState(c.vec(r.v)), satState(c.sat(r.sat)))
	}
	for _, s := range c.freeW {
		words[s]++
	}
	for _, s := range c.freeS {
		bits[s]++
	}
	for what, n := range map[string][]int{"vector": words, "saturation": bits} {
		for s, k := range n {
			if k != 1 {
				t.Fatalf("%s slot %d is held %d times (free list included)", what, s, k)
			}
		}
	}
	var live []int
	for s := range words {
		if !slices.Contains(c.freeW, int32(s)) {
			live = append(live, s)
		}
	}
	fmt.Fprintf(&sb, "\nlive vector slots %v", live)
	return sb.String()
}

// TestDropMidCombinationRestoresCone drops a constraint the way an
// exhausted budget does: cone.addUntil, the body of cone.add, is stopped
// before the combination step and then before each (plus, minus) pair in
// turn. The cone must then hold the records, the slots in use, the side
// table and the saturation bits it held before the add, and a conversion
// that goes on from it must match one that never saw the row. One cut
// combines on the machine tier, the other makes exact-tier rays.
func TestDropMidCombinationRestoresCone(t *testing.T) {
	const n = 3
	// A box with a cut corner: enough plus and minus rays for the cuts
	// below to combine several adjacent pairs.
	rows := []row{
		rowOf(ge(0, 1, 0), n, nil), rowOf(ge(4, -1, 0), n, nil),
		rowOf(ge(0, 1, 1), n, nil), rowOf(ge(4, -1, 1), n, nil),
		rowOf(ge(0, 1, 2), n, nil), rowOf(ge(4, -1, 2), n, nil),
		rowOf(ge(10, -1, 0, -1, 1, -1, 2), n, nil),
	}
	next := rowOf(ge(3, -1, 1), n, nil) // y <= 3
	const big = 1 << 62
	for _, tc := range []struct {
		name  string
		cut   row
		exact bool
	}{
		{"machine", rowOf(ge(-5, 1, 0, 1, 1, -1, 2), n, nil), false},        // x + y - z >= 5
		{"exact", rowOf(ge(-big, big-1, 0, big-3, 1, -1, 2), n, nil), true}, // about x + y >= 1, near 2^62
	} {
		t.Run(tc.name, func(t *testing.T) {
			made, exact := 0, 0 // most rays and side-table entries made before a drop
			for limit := 0; ; limit++ {
				c := universePolyCone(n, len(rows)+2, 0, false, nil)
				for _, r := range rows {
					c.add(r)
				}
				before := coneState(t, c)
				live := func() int { return len(c.bits)/c.nw - len(c.freeS) }
				rays, entries := live(), len(c.exact)
				stopped := false
				stop := func(pairs int) bool {
					if pairs < limit {
						return false
					}
					stopped = true
					made, exact = max(made, live()-rays), max(exact, len(c.exact)-entries)
					return true
				}
				if c.addUntil(tc.cut, stop) == stopped {
					t.Fatalf("limit %d: addUntil reported the wrong outcome", limit)
				}
				if !stopped {
					if made == 0 || tc.exact && exact == 0 {
						t.Fatalf("no drop came after a combined ray (%d) or side-table entry (%d)", made, exact)
					}
					return
				}
				if got := coneState(t, c); got != before {
					t.Fatalf("stopped before pair %d: the dropped constraint left the cone changed:\ngot  %s\nwant %s", limit, got, before)
				}
				c.add(next)
				got := genState(c.result(len(rows) + 1))
				if want := genState(gensOf(append(rows[:len(rows):len(rows)], next), n, nil)); got != want {
					t.Fatalf("stopped before pair %d: the conversion went on from a changed cone:\ngot  %s\nwant %s", limit, got, want)
				}
			}
		})
	}
}

// TestAdjacencyWordPathsAgree converts each random system twice: once in
// a cone whose saturation rows are one word, so that cone.adjacent takes
// its one-word path, and once in a cone sized for 64 more constraints,
// whose two-word rows take the general path. The generators and their
// saturation sets must be the same.
func TestAdjacencyWordPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(4)
		rows := randomRows(rng, n)
		one := universePolyCone(n, len(rows), 0, false, nil)
		two := universePolyCone(n, 64+len(rows), 0, false, nil)
		if one.nw != 1 || two.nw != 2 {
			t.Fatalf("saturation rows of %d and %d words, want 1 and 2", one.nw, two.nw)
		}
		if got, want := genState(two.convert(rows, 0)), genState(one.convert(rows, 0)); got != want {
			t.Fatalf("trial %d: the two adjacency paths disagree:\ntwo words %s\none word  %s", trial, got, want)
		}
	}
}

// TestContinuedConversionLeavesBase continues a conversion, twice in a
// chain, and requires the base genset's coefficients and saturation bits
// to be as they were: the cone works on copies of them, and a vector it
// hands back unchanged is shared, never written.
func TestContinuedConversionLeavesBase(t *testing.T) {
	const n = 2
	base := gensOf([]row{rowOf(ge(0, 1, 0), n, nil), rowOf(ge(0, 1, 1), n, nil), rowOf(ge(9, -1, 0), n, nil)}, n, nil)
	want, wantSat := genState(base), slices.Clone(base.sat)
	words := make([][]int64, len(base.rays))
	for i, r := range base.rays {
		words[i] = slices.Clone(r.w)
	}
	mid := continueGens(base, []row{rowOf(ge(6, -1, 0, -1, 1), n, nil)}, n, nil)
	continueGens(mid, []row{rowOf(ge(-1, 1, 1), n, nil), rowOf(ge(-4, 2, 0), n, nil)}, n, nil)
	if got := genState(base); got != want || !slices.Equal(base.sat, wantSat) {
		t.Fatalf("continuing changed the base:\ngot  %s %x\nwant %s %x", got, base.sat, want, wantSat)
	}
	for i, r := range base.rays {
		if !slices.Equal(r.w, words[i]) {
			t.Fatalf("ray %d of the base changed: %v, want %v", i, r.w, words[i])
		}
	}
}
