package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arena"
	"repro/internal/polyhedra"
	"repro/internal/zone"
)

var updateInvariants = flag.Bool("update", false, "rewrite testdata/goldens/invariants and testdata/goldens/replay.txt from the current analyzer")

// invariantSuites are the corpus files whose per-procedure invariants the
// representation golden pins.
var invariantSuites = []string{
	"../../testdata/airbus/airbus.c",
	"../../testdata/fixwrites/fixwrites.c",
	"../../testdata/running/skipline.c",
}

// invariantDigest runs the plain fixpoint over ip under dom and returns the
// golden line: the iteration count and the sha256 of every in-state's
// StateKey in statement order. Report goldens only show messages; this
// digest changes whenever any invariant's representation does (a different
// constraint order or basis counts as a change).
func invariantDigest(t *testing.T, pr *ProcReport, dom analysis.Domain) string {
	t.Helper()
	res, err := analysis.Analyze(pr.IP, analysis.Options{Domain: dom})
	if err != nil {
		t.Fatalf("%s: %v", pr.Name, err)
	}
	h := sha256.New()
	for _, st := range res.States {
		k, ok := st.(interface{ StateKey() (string, bool) })
		if !ok {
			t.Fatalf("%s: %s state has no StateKey", pr.Name, dom.Name())
		}
		key, avail := k.StateKey()
		if !avail {
			fmt.Fprint(h, "-1:")
			continue
		}
		fmt.Fprintf(h, "%d:%s", len(key), key)
	}
	return fmt.Sprintf("%s %s iterations=%d states=%s\n",
		pr.Name, dom.Name(), res.Iterations, hex.EncodeToString(h.Sum(nil)))
}

// TestInvariantRepresentationGolden pins the exact representation of every
// fixpoint invariant of the three corpus files under the polyhedra and zone
// domains. Run with -update to regenerate after an intended change.
func TestInvariantRepresentationGolden(t *testing.T) {
	for _, path := range invariantSuites {
		name := strings.TrimSuffix(filepath.Base(path), ".c")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The domain only matters for the report, not for the C2IP
			// output pinned here; the interval domain keeps the setup cheap.
			rep, err := AnalyzeSource(path, string(src), Options{
				Workers: 1, Domain: analysis.IntervalDomain{}, NoSideEffectCheck: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for i := range rep.Procs {
				pr := &rep.Procs[i]
				if pr.IP == nil {
					t.Fatalf("%s: no integer program", pr.Name)
				}
				ar := arena.New()
				sb.WriteString(invariantDigest(t, pr, analysis.PolyDomain{Config: &polyhedra.Config{Arena: ar}}))
				sb.WriteString(invariantDigest(t, pr, analysis.ZoneDomain{Config: &zone.Config{Arena: ar}}))
			}
			golden := filepath.Join("../../testdata/goldens/invariants", name+".txt")
			if *updateInvariants {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("invariant representations drifted from %s:\n%s", golden, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff lists the golden lines that differ, one want/got pair each.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&sb, "- %s\n+ %s\n", wl, gl)
		}
	}
	return sb.String()
}
