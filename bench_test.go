// Benchmarks regenerating the paper's evaluation artifacts. Each bench maps
// to a table or figure of the PLDI 2003 paper (see DESIGN.md §3 for the
// index):
//
//	BenchmarkTable5/*          — Table 5 rows (per-procedure pipeline cost)
//	BenchmarkHeadline          — §1.3/§5 headline (suite totals)
//	BenchmarkRevalidate        — §3 procedure modularity: cache reuse of
//	                             certified verdicts after an edit
//	BenchmarkC2IPScaling/*     — §3.4.2.4: IP size, this tool vs the
//	                             O(S*V^2) translation of [13]
//	BenchmarkDomainAblation/*  — §3.5 design choice: polyhedra vs zone vs
//	                             interval precision/cost
//	BenchmarkPPTAblation/*     — §3.3 design choice: Fig. 7 merging on/off
//	BenchmarkRunningExample/*  — Figs. 3/4/8 end-to-end
//	BenchmarkDerive            — §4 contract derivation (ASPost + AWPre)
//	BenchmarkPolyhedra/*       — the numeric substrate's primitive costs
package cssv

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/c2ip"
	"repro/internal/cast"
	"repro/internal/core"
	"repro/internal/corec"
	"repro/internal/cparse"
	"repro/internal/derive"
	"repro/internal/inline"
	"repro/internal/libc"
	"repro/internal/linear"
	"repro/internal/pointer"
	"repro/internal/polyhedra"
	"repro/internal/ppt"
)

func mustRead(b *testing.B, path string) string {
	b.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return string(src)
}

// BenchmarkTable5 regenerates the per-procedure pipeline measurements of
// Table 5 (manual contracts; the derivation columns are exercised by
// BenchmarkDerive and the cssv-table5 command).
func BenchmarkTable5(b *testing.B) {
	suites := []struct{ name, path string }{
		{"airbus", "testdata/airbus/airbus.c"},
		{"fixwrites", "testdata/fixwrites/fixwrites.c"},
	}
	for _, s := range suites {
		src := mustRead(b, s.path)
		// Enumerate procedures once.
		rep, err := Analyze(s.path, src, Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, proc := range rep.Procedures {
			proc := proc
			b.Run(s.name+"/"+proc.Name, func(b *testing.B) {
				msgs := 0
				for i := 0; i < b.N; i++ {
					r, err := Analyze(s.path, src, Config{Procedures: []string{proc.Name}})
					if err != nil {
						b.Fatal(err)
					}
					msgs = len(r.Procedures[0].Messages)
				}
				b.ReportMetric(float64(proc.IPVars), "IPvars")
				b.ReportMetric(float64(proc.IPSize), "IPstmts")
				b.ReportMetric(float64(msgs), "messages")
			})
		}
	}
}

// BenchmarkCascade is BenchmarkTable5 under Config{Cascade: true}: the
// tiered interval -> zone -> polyhedra discharge analyzing, at each tier,
// only the slice of the still-unproven checks. Sub-benchmark names match
// BenchmarkTable5 so the two are directly comparable with benchstat; the
// residual* metrics show how much of the IP still reaches the polyhedra
// tier (0 when the cheap tiers discharged everything).
func BenchmarkCascade(b *testing.B) {
	suites := []struct{ name, path string }{
		{"airbus", "testdata/airbus/airbus.c"},
		{"fixwrites", "testdata/fixwrites/fixwrites.c"},
	}
	for _, s := range suites {
		src := mustRead(b, s.path)
		rep, err := Analyze(s.path, src, Config{Cascade: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, proc := range rep.Procedures {
			proc := proc
			b.Run(s.name+"/"+proc.Name, func(b *testing.B) {
				var last *Procedure
				for i := 0; i < b.N; i++ {
					r, err := Analyze(s.path, src, Config{
						Cascade:    true,
						Procedures: []string{proc.Name},
					})
					if err != nil {
						b.Fatal(err)
					}
					last = &r.Procedures[0]
				}
				b.ReportMetric(float64(last.IPVars), "IPvars")
				b.ReportMetric(float64(last.IPSize), "IPstmts")
				b.ReportMetric(float64(len(last.Messages)), "messages")
				if cs := last.Cascade; cs != nil {
					b.ReportMetric(float64(cs.ResidualVars), "residualvars")
					b.ReportMetric(float64(cs.ResidualStmts), "residualstmts")
					cheap := 0
					for _, t := range cs.Tiers {
						if t.Domain != "polyhedra" {
							cheap += t.Discharged
						}
					}
					b.ReportMetric(float64(cheap), "cheapdischarged")
				}
			})
		}
	}
}

// benchSuiteParallel measures whole-suite wall clock under a given worker
// count. Sub-benchmark names (workers=1 vs workers=N) make the parallel
// speedup directly visible with benchstat; the reports are bit-identical
// across worker counts (TestParallelDeterminism).
func benchSuiteParallel(b *testing.B, cfg Config) {
	suites := []struct{ name, path string }{
		{"airbus", "testdata/airbus/airbus.c"},
		{"fixwrites", "testdata/fixwrites/fixwrites.c"},
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	} else {
		// Still exercise the pool itself on single-CPU machines.
		workerCounts = append(workerCounts, 8)
	}
	for _, s := range suites {
		src := mustRead(b, s.path)
		for _, w := range workerCounts {
			cfg := cfg
			cfg.Workers = w
			b.Run(fmt.Sprintf("%s/workers=%d", s.name, w), func(b *testing.B) {
				msgs := 0
				for i := 0; i < b.N; i++ {
					rep, err := Analyze(s.path, src, cfg)
					if err != nil {
						b.Fatal(err)
					}
					msgs = len(rep.Messages())
					b.ReportMetric(float64(rep.Stats.SequentialCPU)/float64(rep.Stats.Wall), "speedup")
				}
				b.ReportMetric(float64(msgs), "messages")
			})
		}
	}
}

// BenchmarkTable5Parallel is the whole-suite Table 5 workload under the
// parallel driver: one Analyze call per iteration fans the per-procedure
// pipelines out over the worker pool.
func BenchmarkTable5Parallel(b *testing.B) { benchSuiteParallel(b, Config{}) }

// BenchmarkCascadeParallel composes the PR 1 cascade (cheap per-procedure
// discharge) with the worker pool (cross-procedure parallelism).
func BenchmarkCascadeParallel(b *testing.B) { benchSuiteParallel(b, Config{Cascade: true}) }

// BenchmarkLibcPrelude quantifies the cached contract-header parse: "parse"
// is the per-run cost before the cache existed (lex + parse of the full
// header), "cached" is what every AnalyzeSource and Prepare call pays now.
func BenchmarkLibcPrelude(b *testing.B) {
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cparse.ParsePrelude(libc.HeaderName, libc.Header); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := libc.Prelude(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// End-to-end: repeated single-procedure runs, the workload the parsed
	// libc header cache was built for.
	src := mustRead(b, "testdata/running/skipline.c")
	b.Run("repeated-single-proc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Analyze("skipline.c", src, Config{Procedures: []string{"SkipLine"}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHeadline regenerates the §1.3 headline totals: messages over the
// whole Airbus-style suite (all false alarms) and the fixwrites-style suite
// (8 errors + 2 false alarms).
func BenchmarkHeadline(b *testing.B) {
	for _, s := range []struct{ name, path string }{
		{"airbus", "testdata/airbus/airbus.c"},
		{"fixwrites", "testdata/fixwrites/fixwrites.c"},
	} {
		src := mustRead(b, s.path)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				rep, err := Analyze(s.path, src, Config{})
				if err != nil {
					b.Fatal(err)
				}
				total = len(rep.Messages())
			}
			b.ReportMetric(float64(total), "messages")
		})
	}
}

// BenchmarkRevalidate times the certificate-revalidation path: airbus is
// analyzed once into a warm cache, and every iteration analyzes it again
// with a fresh procedure appended, so all 11 original procedures
// revalidate (front end, stored certificates decoded and re-proved, entry
// refreshed under the new key) and only the appended one is analyzed.
// Each iteration starts from a copy of the warm cache, so stale entries
// never pile up. certKB/op is the certificate payload one op decodes.
func BenchmarkRevalidate(b *testing.B) {
	const path = "testdata/airbus/airbus.c"
	src := mustRead(b, path)
	warm := b.TempDir()
	cfg := Config{Workers: 1, Cascade: true, CacheDir: warm}
	if _, err := Analyze(path, src, cfg); err != nil {
		b.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(warm, "*"))
	if err != nil {
		b.Fatal(err)
	}
	files := map[string][]byte{}
	certBytes := 0
	for _, f := range entries {
		data, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		files[filepath.Base(f)] = data
		if strings.HasSuffix(f, ".cert") {
			certBytes += len(data)
		}
	}
	if certBytes == 0 {
		b.Fatal("warm cache holds no certificate files")
	}
	edited := src + "\nvoid cssv_bench_append(void){int x; x=0;}\n"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg.CacheDir = b.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(cfg.CacheDir, name), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		rep, err := Analyze(path, edited, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Stats.CacheRevalidated != 11 || rep.Stats.CacheMisses != 1 {
			b.Fatalf("revalidated %d, missed %d; want 11 and 1",
				rep.Stats.CacheRevalidated, rep.Stats.CacheMisses)
		}
	}
	b.ReportMetric(float64(certBytes)/1024, "certKB/op")
}

// genScaling builds a procedure with V cross-aliased pointers over V
// buffers and S pointer-arithmetic statements: the workload for the
// §3.4.2.4 complexity comparison.
func genScaling(V, S int) string {
	var sb strings.Builder
	sb.WriteString("void scale(int c) {\n")
	for i := 0; i < V; i++ {
		fmt.Fprintf(&sb, "    char b%d[64];\n", i)
		fmt.Fprintf(&sb, "    char *p%d;\n", i)
	}
	// p0 reaches every buffer; every pi aliases p0.
	for i := 0; i < V; i++ {
		fmt.Fprintf(&sb, "    p0 = b%d;\n", i)
	}
	for i := 1; i < V; i++ {
		fmt.Fprintf(&sb, "    p%d = p0;\n", i)
	}
	for s := 0; s < S; s++ {
		fmt.Fprintf(&sb, "    if (c > %d) { p%d = p%d + 1; }\n", s, s%V, s%V)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// BenchmarkC2IPScaling compares the generated IP size of this paper's
// translation (O(S*V)) against the earlier tool's O(S*V^2) translation
// ([13]), reproducing the §3.4.2.4 claim. The reported IPvars/IPstmts
// metrics are the measurement; run with -bench C2IPScaling and compare the
// naive/new series.
func BenchmarkC2IPScaling(b *testing.B) {
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"new", false}, {"naive", true}} {
		for _, V := range []int{4, 8, 16, 32} {
			b.Run(fmt.Sprintf("%s/V=%d", mode.name, V), func(b *testing.B) {
				src := genScaling(V, 48)
				var vars, stmts int
				for i := 0; i < b.N; i++ {
					prog := mustPipeline(b, src, "scale")
					res, err := c2ip.Transform(prog.nprog, prog.fd, prog.pt,
						c2ip.Options{Naive: mode.naive})
					if err != nil {
						b.Fatal(err)
					}
					vars = res.Prog.NumVars()
					stmts = res.Prog.Size()
				}
				b.ReportMetric(float64(vars), "IPvars")
				b.ReportMetric(float64(stmts), "IPstmts")
			})
		}
	}
}

type pipelineOut struct {
	nprog *corec.Program
	fd    *cast.FuncDecl
	pt    *ppt.PPT
}

// mustPipeline runs parse/normalize/inline/pointer/PPT for one procedure.
func mustPipeline(b *testing.B, src, proc string) pipelineOut {
	b.Helper()
	file, err := cparse.ParseFile("bench.c", libc.Header+"\n"+src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := corec.Normalize(file)
	if err != nil {
		b.Fatal(err)
	}
	inlined, err := inline.File(prog, proc)
	if err != nil {
		b.Fatal(err)
	}
	nprog, err := corec.Renormalize(prog, inlined)
	if err != nil {
		b.Fatal(err)
	}
	fd := nprog.File.Lookup(proc)
	g := pointer.Analyze(nprog, pointer.Inclusion)
	pt := ppt.Build(nprog, fd, g, ppt.Options{})
	return pipelineOut{nprog: nprog, fd: fd, pt: pt}
}

// BenchmarkDomainAblation runs a representative Table 5 procedure under
// each numeric domain, reporting precision (messages; lower is better on
// this safe procedure — every message is a false alarm) against cost.
func BenchmarkDomainAblation(b *testing.B) {
	src := mustRead(b, "testdata/airbus/airbus.c")
	for _, domain := range []string{"polyhedra", "zone", "interval"} {
		b.Run(domain, func(b *testing.B) {
			msgs := 0
			for i := 0; i < b.N; i++ {
				rep, err := Analyze("airbus.c", src, Config{
					Domain:     domain,
					Procedures: []string{"RTC_Si_SkipLine"},
				})
				if err != nil {
					b.Fatal(err)
				}
				msgs = len(rep.Procedures[0].Messages)
			}
			b.ReportMetric(float64(msgs), "falsealarms")
		})
	}
}

// BenchmarkPPTAblation quantifies the Fig. 7 strong-update merge: with
// merging disabled, updates through formals are weak and the running
// example's postcondition can no longer be verified (§1.3: "a naive
// implementation will perform weak updates which may lead to many false
// alarms").
func BenchmarkPPTAblation(b *testing.B) {
	// The running example is the paper's own illustration: with main
	// present, PtrEndText may point to either r or s, and only the Fig. 7
	// merge lets the analysis update *PtrEndText strongly.
	src := mustRead(b, "testdata/running/skipline.c")
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"merge", false}, {"nomerge", true}} {
		b.Run(mode.name, func(b *testing.B) {
			msgs := 0
			for i := 0; i < b.N; i++ {
				rep, err := Analyze("skipline.c", src, Config{
					Procedures:        []string{"SkipLine"},
					DisablePPTMerging: mode.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				msgs = len(rep.Procedures[0].Messages)
			}
			b.ReportMetric(float64(msgs), "falsealarms")
		})
	}
}

// BenchmarkRunningExample measures the Figs. 3/4/8 pipeline: verifying
// SkipLine and finding the off-by-one in main.
func BenchmarkRunningExample(b *testing.B) {
	src := mustRead(b, "testdata/running/skipline.c")
	for _, proc := range []string{"SkipLine", "main"} {
		b.Run(proc, func(b *testing.B) {
			msgs := 0
			for i := 0; i < b.N; i++ {
				rep, err := Analyze("skipline.c", src, Config{Procedures: []string{proc}})
				if err != nil {
					b.Fatal(err)
				}
				msgs = len(rep.Procedures[0].Messages)
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

// BenchmarkDerive measures the §4 derivation algorithms (ASPost + AWPre +
// write-back) on the running example.
func BenchmarkDerive(b *testing.B) {
	src := mustRead(b, "testdata/running/skipline.c")
	prog, err := core.Prepare("skipline.c", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := derive.Derive(prog, "SkipLine", derive.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolyhedra measures the substrate's primitive operations at the
// dimension counts Table 5 produces (tens of variables).
func BenchmarkPolyhedra(b *testing.B) {
	mk := func(dim int) (linear.System, linear.System) {
		var sysA, sysB linear.System
		for v := 0; v < dim; v++ {
			e := linear.VarExpr(v)
			sysA = append(sysA, linear.NewGe(e))                        // x >= 0
			f := linear.ConstExpr(int64(10 + v)).Sub(linear.VarExpr(v)) // x <= 10+v
			sysA = append(sysA, linear.NewGe(f))
			if v > 0 {
				g := linear.VarExpr(v).Sub(linear.VarExpr(v - 1))
				sysB = append(sysB, linear.NewGe(g)) // x_v >= x_{v-1}
			}
		}
		return sysA, sysB
	}
	for _, dim := range []int{4, 6, 8} {
		sysA, sysB := mk(dim)
		q := polyhedra.FromSystem(sysB, dim)
		// A fresh left operand per iteration, so every iteration also
		// converts its constraints to generators.
		b.Run(fmt.Sprintf("join/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				polyhedra.FromSystem(sysA, dim).Join(q)
			}
		})
		b.Run(fmt.Sprintf("meet+empty/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				polyhedra.FromSystem(sysA, dim).Meet(q).IsEmpty()
			}
		})
		b.Run(fmt.Sprintf("widen/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			p := polyhedra.FromSystem(sysA, dim)
			j := p.Join(q)
			for i := 0; i < b.N; i++ {
				p.Widen(j)
			}
		})
	}
	// Corpus-shaped: the corpus IPs have tens of variables, but each row
	// names at most five (one buffer's offset, length and allocation
	// size, or a link between buffers), so inner products walk mostly
	// zeros unless they skip them.
	const dim = 24
	sparse := func(shift int64) linear.System {
		var sys linear.System
		for k := 0; k < dim/3; k++ {
			off, length, alloc := linear.VarExpr(3*k), linear.VarExpr(3*k+1), linear.VarExpr(3*k+2)
			sys = append(sys,
				linear.NewGe(off.Sub(linear.ConstExpr(shift))),                 // off >= shift
				linear.NewGe(length.Sub(off).Sub(linear.ConstExpr(shift))),     // len >= off + shift
				linear.NewGe(alloc.Sub(length).Sub(linear.ConstExpr(1-shift)))) // alloc >= len + 1 - shift
		}
		for k := 0; k < dim/3; k += 4 {
			e := linear.VarExpr(3*((k+4)%(dim/3)) + 1) // len_{k+4} >= off_k + ... + off_{k+3}
			for j := k; j < k+4; j++ {
				e = e.Sub(linear.VarExpr(3 * j))
			}
			sys = append(sys, linear.NewGe(e))
		}
		return sys
	}
	sysA, sysB := sparse(0), sparse(1)
	q := polyhedra.FromSystem(sysB, dim)
	q.IsEmpty() // generators once, outside the loop
	// One constraint-to-generator conversion from scratch.
	b.Run(fmt.Sprintf("convert/sparse-dim=%d", dim), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			polyhedra.FromSystem(sysA, dim).IsEmpty()
		}
	})
	b.Run(fmt.Sprintf("join/sparse-dim=%d", dim), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			polyhedra.FromSystem(sysA, dim).Join(q)
		}
	})
	// A chain of meets on an operand whose generators are known, each
	// result's emptiness asked as the fixpoint does after a guard: every
	// meet continues the conversion before it with its one new row.
	var guards []linear.System
	for k := 0; k < 2; k++ {
		off, length := linear.VarExpr(3*k), linear.VarExpr(3*k+1)
		guards = append(guards, linear.System{linear.NewGe(linear.ConstExpr(int64(8 + k)).Sub(length))}, // len <= 8+k
			linear.System{linear.NewGe(length.Sub(off).Sub(linear.ConstExpr(2)))}) // len >= off + 2
	}
	p := polyhedra.FromSystem(sysA, dim)
	p.IsEmpty()
	b.Run(fmt.Sprintf("meet-chain/sparse-dim=%d", dim), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := p
			for _, g := range guards {
				if r = r.MeetSystem(g); r.IsEmpty() {
					b.Fatal("the chain must stay non-empty")
				}
			}
		}
	})
	hull := polyhedra.FromSystem(sysA, dim).Join(q)
	b.Run(fmt.Sprintf("includes/sparse-dim=%d", dim), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !hull.Includes(polyhedra.FromSystem(sysB, dim)) {
				b.Fatal("the hull must include its operand")
			}
		}
	})
}
