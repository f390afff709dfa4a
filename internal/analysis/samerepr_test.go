package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/polyhedra"
	"repro/internal/zone"
)

// TestSameReprMatchesKey holds the in-place representation comparison that
// stale-only narrowing uses to its definition: over every pair of in-states
// of every corpus procedure, under the polyhedra and zone domains,
// SameRepr holds exactly when the keys are available and equal and, for
// polyhedra, the Minimized flags agree. Each state is also paired with its
// join with bottom, which shares its representation.
func TestSameReprMatchesKey(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	type keyer interface{ StateKey() (string, bool) }
	same, differ := 0, 0
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.AnalyzeSource(path, string(src), core.Options{
			Workers: 1, Domain: analysis.IntervalDomain{}, NoSideEffectCheck: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range rep.Procs {
			if pr.IP == nil {
				continue
			}
			for _, dom := range []analysis.Domain{analysis.PolyDomain{Config: &polyhedra.Config{}}, analysis.ZoneDomain{Config: &zone.Config{}}} {
				res, err := analysis.Analyze(pr.IP, analysis.Options{Domain: dom})
				if err != nil {
					t.Fatalf("%s: %v", pr.Name, err)
				}
				bottom := dom.Bottom(pr.IP.NumVars())
				states := append([]analysis.State(nil), res.States...)
				for _, st := range res.States {
					states = append(states, bottom.Join(st))
				}
				keys := make([]string, len(states))
				for i, st := range states {
					keys[i], _ = st.(keyer).StateKey() // "" when unavailable
				}
				minimized := func(st analysis.State) bool {
					if p, ok := st.(interface{ Poly() *polyhedra.Poly }); ok {
						return p.Poly().Minimized()
					}
					return false
				}
				for i, a := range states {
					for j, b := range states {
						want := keys[i] != "" && keys[i] == keys[j] && minimized(a) == minimized(b)
						if got := a.SameRepr(b); got != want {
							t.Fatalf("%s %s %s: SameRepr(in[%d], in[%d]) = %v, keys and Minimized say %v",
								path, pr.Name, dom.Name(), i, j, got, want)
						}
						if want {
							same++
						} else {
							differ++
						}
					}
				}
			}
		}
	}
	if same == 0 || differ == 0 {
		t.Fatalf("compared %d same and %d different pairs; want both", same, differ)
	}
}
