package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
)

// runningExample is the paper's Fig. 3 + Fig. 4: SkipLine with its contract
// and the toy main with the off-by-one error at the second SkipLine call.
const runningExample = `
#define SIZE 1024

void SkipLine(int NbLine, char **PtrEndText)
    requires (is_within_bounds(*PtrEndText) &&
              alloc(*PtrEndText) > NbLine && NbLine >= 0)
    modifies (*PtrEndText), (is_nullt(*PtrEndText)), (strlen(*PtrEndText))
    ensures (is_nullt(*PtrEndText) && strlen(*PtrEndText) == 0 &&
             *PtrEndText == pre(*PtrEndText) + NbLine)
{
    int indice;
    char *PtrEndLoc;
    indice = 0;
begin_loop:
    if (indice >= NbLine) goto end_loop;
    PtrEndLoc = *PtrEndText;
    *PtrEndLoc = '\n';
    *PtrEndText = PtrEndLoc + 1;
    indice = indice + 1;
    goto begin_loop;
end_loop:
    PtrEndLoc = *PtrEndText;
    *PtrEndLoc = '\0';
}

void main() {
    char buf[SIZE];
    char *r;
    char *s;
    int n;
    r = buf;
    SkipLine(1, &r);
    fgets(r, SIZE - 1, 0);
    n = strlen(r);
    s = r + n;
    SkipLine(1, &s);
}
`

// TestRunningExampleSkipLine: CSSV verifies SkipLine with no false alarms
// (paper §2.3: "CSSV is able to statically verify the absence of string
// errors in this function, without reporting any false alarm").
func TestRunningExampleSkipLine(t *testing.T) {
	rep, err := AnalyzeSource("skipline.c", runningExample, Options{Procs: []string{"SkipLine"}})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	pr := rep.Proc("SkipLine")
	if pr == nil {
		t.Fatal("no report for SkipLine")
	}
	for _, v := range pr.Violations {
		t.Errorf("false alarm: %s", analysis.FormatViolation(v, pr.IP.Space))
	}
	if t.Failed() {
		t.Logf("IP:\n%s", pr.IP)
	}
}

// TestRunningExampleMain: CSSV detects the off-by-one error at the second
// SkipLine call in main and reports no other message (paper §2.3).
func TestRunningExampleMain(t *testing.T) {
	rep, err := AnalyzeSource("skipline.c", runningExample, Options{Procs: []string{"main"}})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	pr := rep.Proc("main")
	if pr == nil {
		t.Fatal("no report for main")
	}
	if len(pr.Violations) == 0 {
		t.Fatalf("the off-by-one error was missed\nIP:\n%s", pr.IP)
	}
	found := false
	for _, v := range pr.Violations {
		t.Logf("message: %s", analysis.FormatViolation(v, pr.IP.Space))
		if v.Msg == "precondition of SkipLine" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a 'precondition of SkipLine' violation")
	}
	if len(pr.Violations) > 1 {
		t.Errorf("expected exactly one message, got %d", len(pr.Violations))
	}
}

const statsSrc = `
char g[8];
void f(char *s) requires (is_nullt(s)) { char *p; p = g; }
void h(void) { char *q; q = g; }
`

func TestRunStatsAccounting(t *testing.T) {
	// Sequential run: Space measured, stats filled in.
	rep, err := AnalyzeSource("t.c", statsSrc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Workers != 1 {
		t.Errorf("Workers = %d, want 1", rep.Stats.Workers)
	}
	if rep.Stats.Wall <= 0 || rep.Stats.SequentialCPU <= 0 {
		t.Errorf("timings not measured: %+v", rep.Stats)
	}
	if rep.Stats.PointerCacheHits != 0 {
		t.Errorf("PointerCacheHits = %d, want 0", rep.Stats.PointerCacheHits)
	}
	if rep.Stats.PointerCacheMisses != len(rep.Procs) {
		t.Errorf("PointerCacheMisses = %d, want one pointer analysis per procedure (%d)",
			rep.Stats.PointerCacheMisses, len(rep.Procs))
	}
	for i := range rep.Procs {
		if rep.Procs[i].Space == 0 {
			t.Errorf("%s: Space not measured under Workers=1", rep.Procs[i].Name)
		}
	}
	// Concurrent run: Space reported as 0 (documented fallback).
	rep2, err := AnalyzeSource("t.c", statsSrc, Options{Workers: 2})
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

// TestRunStatsIsSumOfProcedureCounts checks that every count in RunStats
// is the sum of the per-procedure counts — on a cold cache, an exact rerun
// and an appended-procedure edit — and that each procedure's counts are
// the same under one worker and eight.
func TestRunStatsIsSumOfProcedureCounts(t *testing.T) {
	for _, suite := range []string{"airbus", "fixwrites"} {
		raw, err := os.ReadFile(filepath.Join("../../testdata", suite, suite+".c"))
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		edits := []struct{ name, src string }{
			{"cold", src},
			{"rerun", src},
			{"append", src + "\nvoid cssv_appended(void) { int x; x = 0; }\n"},
		}
		perProc := map[int][][]Counts{}
		for _, workers := range []int{1, 8} {
			opts := Options{Workers: workers, Cascade: true, CacheDir: t.TempDir()}
			for _, e := range edits {
				rep, err := AnalyzeSource(suite+".c", e.src, opts)
				if err != nil {
					t.Fatal(err)
				}
				counts := make([]Counts, len(rep.Procs))
				for i := range rep.Procs {
					counts[i] = rep.Procs[i].Counts
				}
				perProc[workers] = append(perProc[workers], counts)
				stats := reflect.ValueOf(rep.Stats.Counts)
				var total int64
				for f := 0; f < stats.NumField(); f++ {
					var sum int64
					for _, c := range counts {
						sum += reflect.ValueOf(c).Field(f).Int()
					}
					if got := stats.Field(f).Int(); got != sum {
						t.Errorf("%s/workers=%d/%s: Stats.%s = %d, procedures sum to %d",
							suite, workers, e.name, stats.Type().Field(f).Name, got, sum)
					}
					total += sum
				}
				if total == 0 {
					t.Errorf("%s/workers=%d/%s: every count is zero", suite, workers, e.name)
				}
			}
		}
		if !reflect.DeepEqual(perProc[1], perProc[8]) {
			t.Errorf("%s: per-procedure counts differ between 1 and 8 workers\n1: %+v\n8: %+v",
				suite, perProc[1], perProc[8])
		}
	}
}

// TestPointerAnalysesCountFrontEndRuns pins PointerCacheMisses to one
// pointer analysis per procedure that ran the front end: every procedure
// on a cold cache, none on an exact rerun, and exactly the revalidated
// and stored ones after an edit that leaves every body unchanged. The
// benchmark harness checks its own mirror's pointer-analysis count
// against this field.
func TestPointerAnalysesCountFrontEndRuns(t *testing.T) {
	src := readAirbus(t)
	opts := Options{Cascade: true, CacheDir: t.TempDir()}
	run := func(src string) *Report {
		t.Helper()
		rep, err := AnalyzeSource("airbus.c", src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.PointerCacheHits != 0 {
			t.Errorf("PointerCacheHits = %d, want 0", rep.Stats.PointerCacheHits)
		}
		return rep
	}
	if got := run(src).Stats.PointerCacheMisses; got != 11 {
		t.Errorf("cold run: PointerCacheMisses = %d, want 11", got)
	}
	rerun := run(src)
	for i := range rerun.Procs {
		if st := rerun.Procs[i].CacheStatus; st != "hit" {
			t.Errorf("rerun: %s CacheStatus = %q, want \"hit\"", rerun.Procs[i].Name, st)
		}
	}
	if got := rerun.Stats.PointerCacheMisses; got != 0 {
		t.Errorf("rerun: PointerCacheMisses = %d, want 0", got)
	}
	edited := run(src + "\nvoid cssv_appended(void) { int x; x = 0; }\n")
	frontEnd := 0
	for i := range edited.Procs {
		switch edited.Procs[i].CacheStatus {
		case "revalidated", "stored":
			frontEnd++
		}
	}
	if frontEnd == 0 {
		t.Fatal("edited run: no procedure revalidated or stored")
	}
	if got := edited.Stats.PointerCacheMisses; got != frontEnd {
		t.Errorf("edited run: PointerCacheMisses = %d, want %d (revalidated + stored)", got, frontEnd)
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
	rep, err := AnalyzeSource("t.c", precisionDropSrc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.PrecisionDrops != 0 {
		t.Errorf("uncapped run reported %d precision drops, want 0", rep.Stats.PrecisionDrops)
	}
	rep2, err := AnalyzeSource("t.c", precisionDropSrc, Options{Workers: 1, MaxRays: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Stats.PrecisionDrops == 0 {
		t.Errorf("capped run reported no precision drops; the cap must be surfaced in Stats")
	}
}
