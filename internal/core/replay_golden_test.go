package core

import (
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/certify"
	"repro/internal/ip"
)

// replayGolden pins every counter-example replay of the corpus.
const replayGolden = "../../testdata/goldens/replay.txt"

// replayCorpus returns the 14 corpus files: the paper's three examples and
// the suite tasks.
func replayCorpus(t testing.TB) []string {
	t.Helper()
	tasks, err := filepath.Glob("../../testdata/suite/*.c")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(tasks)
	return append(append([]string(nil), invariantSuites...), tasks...)
}

// replayHints converts a violation's counter-example to the per-variable
// hints and candidate pool certify.Replay hands the directed interpreter,
// so a test can read the search's step count next to its outcome.
func replayHints(p *ip.Program, v analysis.Violation) (map[int]*big.Int, []int64) {
	hints := map[int]*big.Int{}
	if v.CounterExampleIntegral {
		for name, rat := range v.CounterExample {
			x, ok := p.Space.Lookup(name)
			if ok && rat != nil && rat.IsInt() {
				hints[x] = new(big.Int).Set(rat.Num())
			}
		}
	}
	if len(hints) == 0 {
		return hints, nil
	}
	values := ip.DefaultDirectedValues()
	seen := map[int64]bool{}
	for _, x := range values {
		seen[x] = true
	}
	vars := make([]int, 0, len(hints))
	for x := range hints {
		vars = append(vars, x)
	}
	sort.Ints(vars)
	for _, x := range vars {
		h := hints[x]
		if !h.IsInt64() {
			continue
		}
		for _, d := range []int64{0, -1, 1} {
			if val := h.Int64() + d; !seen[val] {
				seen[val] = true
				values = append(values, val)
			}
		}
	}
	return hints, values
}

// replayLines analyzes path under opts and returns one golden line per
// replayed violation: procedure, check index, status, trace length, the
// directed search's step count and the replay detail.
func replayLines(t *testing.T, path, config string, opts Options) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeSource(path, string(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	file := strings.TrimPrefix(filepath.ToSlash(path), "../../testdata/")
	var sb strings.Builder
	for i := range rep.Procs {
		pr := &rep.Procs[i]
		if pr.Certification == nil {
			continue
		}
		type key struct {
			index int
			msg   string
		}
		replayed := map[key][]certify.CheckResult{}
		for _, r := range pr.Certification.Checks {
			if r.Status == certify.StatusWitnessed || r.Status == certify.StatusPotential {
				k := key{r.Index, r.Msg}
				replayed[k] = append(replayed[k], r)
			}
		}
		for _, v := range pr.Violations {
			k := key{v.Index, v.Msg}
			if len(replayed[k]) == 0 {
				t.Fatalf("%s %s: violation %d %q has no replay outcome", file, pr.Name, v.Index, v.Msg)
			}
			r := replayed[k][0]
			replayed[k] = replayed[k][1:]
			steps := 0
			if !v.Unverifiable {
				hints, values := replayHints(pr.IP, v)
				dr := pr.IP.ExecDirected(v.Index, hints, ip.DirectedOptions{Values: values})
				if dr.Found != (r.Status == certify.StatusWitnessed) || (dr.Found && len(dr.Trace) != r.TraceLen) {
					t.Fatalf("%s %s check %d: direct search (found=%v, trace %d) disagrees with the report (%s, trace %d)",
						file, pr.Name, v.Index, dr.Found, len(dr.Trace), r.Status, r.TraceLen)
				}
				steps = dr.Steps
			}
			fmt.Fprintf(&sb, "%s %s %s check=%d status=%s trace=%d steps=%d detail=%q\n",
				file, config, pr.Name, v.Index, r.Status, r.TraceLen, steps, r.Detail)
		}
		for k, rest := range replayed {
			if len(rest) > 0 {
				t.Fatalf("%s %s: replay outcome for check %d %q matches no violation", file, pr.Name, k.index, k.msg)
			}
		}
	}
	return sb.String()
}

// TestReplayOutcomesGolden pins the outcome of every counter-example
// replay of the corpus under Cascade+Certify and under Certify, step counts
// included: the directed search must visit the same tree on every change
// that does not mean to alter it. Run with -update to regenerate.
func TestReplayOutcomesGolden(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"cascade+certify", Options{Workers: 1, Domain: analysis.PolyDomain{}, Cascade: true, Certify: true, NoSideEffectCheck: true}},
		{"certify", Options{Workers: 1, Domain: analysis.PolyDomain{}, Certify: true, NoSideEffectCheck: true}},
	}
	var sb strings.Builder
	for _, path := range replayCorpus(t) {
		for _, c := range configs {
			sb.WriteString(replayLines(t, path, c.name, c.opts))
		}
	}
	got := sb.String()
	if *updateInvariants {
		if err := os.WriteFile(replayGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(replayGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("replay outcomes drifted at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("replay outcomes drifted: %d lines, want %d", len(gl), len(wl))
	}
}

// TestReplayMemoCutsWork replays every corpus violation under
// Cascade+Certify and counts the statements each search executes: never
// more than the Steps it reports, which also counts the subtrees replayed
// from its memo, and at most a fifth of them for each of the six searches
// that spend the whole 200,000-step budget.
func TestReplayMemoCutsWork(t *testing.T) {
	opts := Options{Workers: 1, Domain: analysis.PolyDomain{}, Cascade: true, Certify: true, NoSideEffectCheck: true}
	const budget = 200000
	full := 0
	for _, path := range replayCorpus(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := AnalyzeSource(path, string(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep.Procs {
			pr := &rep.Procs[i]
			d := pr.IP.CompileDirected()
			for _, v := range pr.Violations {
				if v.Unverifiable {
					continue
				}
				hints, values := replayHints(pr.IP, v)
				dr := d.Exec(v.Index, hints, ip.DirectedOptions{Values: values})
				ran := d.Executed()
				if ran > dr.Steps {
					t.Errorf("%s %s check %d: executed %d statements, more than its %d steps", path, pr.Name, v.Index, ran, dr.Steps)
				}
				if dr.Steps < budget {
					continue
				}
				full++
				t.Logf("%s %s check %d: executed %d of %d steps", path, pr.Name, v.Index, ran, dr.Steps)
				if 5*ran > dr.Steps {
					t.Errorf("%s %s check %d: executed %d statements, more than a fifth of its %d steps", path, pr.Name, v.Index, ran, dr.Steps)
				}
			}
		}
	}
	if full != 6 {
		t.Errorf("%d searches spent the whole budget, want the 6 of testdata/goldens/replay.txt", full)
	}
}

// BenchmarkExecDirected replays fixwrites' two join_lines violations, each
// of which reports the directed search's whole 200,000-step budget, on
// the program compiled once. It reports the cost per statement the search
// executed, and executed statements per reported step: the memo accounts
// for the rest without executing them.
func BenchmarkExecDirected(b *testing.B) {
	const path = "../../testdata/fixwrites/fixwrites.c"
	src, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := AnalyzeSource(path, string(src), Options{
		Workers: 1, Domain: analysis.PolyDomain{}, Procs: []string{"join_lines"}, NoSideEffectCheck: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(rep.Procs) != 1 || len(rep.Procs[0].Violations) != 2 {
		b.Fatalf("want join_lines with 2 violations, got %d procedures", len(rep.Procs))
	}
	pr := &rep.Procs[0]
	d := pr.IP.CompileDirected()
	b.ResetTimer()
	steps, ran := 0, 0
	for i := 0; i < b.N; i++ {
		for _, v := range pr.Violations {
			hints, values := replayHints(pr.IP, v)
			steps += d.Exec(v.Index, hints, ip.DirectedOptions{Values: values}).Steps
			ran += d.Executed()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ran), "ns/executed")
	b.ReportMetric(float64(ran)/float64(steps), "executed/step")
}
