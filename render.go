package cssv

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/certify"
)

// RenderOptions selects what Render prints beyond the reported messages.
// The zero value renders messages, warnings, degradations, certification
// and derived contracts — exactly what `cssv file.c` shows.
type RenderOptions struct {
	// Stats prints the run summary lines and per-procedure cost
	// statistics (the Table 5 columns), cascade tier provenance, and
	// cache counters.
	Stats bool
	// DumpIP prints each procedure's generated integer program.
	DumpIP bool
	// DumpReducedIP prints the residual integer program the final
	// cascade tier analyzed.
	DumpReducedIP bool
	// Quiet suppresses warnings and non-failing certification detail.
	Quiet bool
	// Target is the object-layout data model name echoed in the stats
	// summary (informational only; the analysis already ran).
	Target string
}

// Render writes the human-readable report for rep to w — the exact output
// of the cssv command — and returns the number of reported messages and
// of failed certificates, from which callers derive the exit status
// (2 when certFailed > 0, 1 when messages > 0, 0 otherwise). It is the
// single formatting path shared by cmd/cssv and the cssv-serve daemon, so
// a batch server response is byte-identical to a one-shot CLI run.
func Render(w io.Writer, rep *Report, o RenderOptions) (messages, certFailed int) {
	if o.Stats {
		s := rep.Stats
		speedup := 1.0
		if s.Wall > 0 {
			speedup = float64(s.SequentialCPU) / float64(s.Wall)
		}
		fmt.Fprintf(w, "run: workers=%d wall=%s cpu=%s speedup=%.1fx libc-header-cached=%v precision-drops=%d degraded=%d unresolved=%d\n",
			s.Workers, s.Wall.Round(1e6), s.SequentialCPU.Round(1e6), speedup, s.LibcHeaderReused,
			s.PrecisionDrops, s.DegradedProcs, s.UnresolvedChecks)
		fmt.Fprintf(w, "run: target=%s member-accesses resolved=%d havocked=%d\n",
			o.Target, s.MemberResolved, s.MemberHavocked)
		fmt.Fprintf(w, "run: cache hits=%d revalidated=%d misses=%d stores=%d bad=%d cert-rejected=%d fixpoint-iterations=%d\n",
			s.CacheHits, s.CacheRevalidated, s.CacheMisses, s.CacheStores,
			s.CacheBadEntries, s.CacheCertRejected, s.FixpointIterations)
		if s.TierDischarged != nil {
			fmt.Fprintf(w, "run: cascade discharged=%s\n", formatTierDischarged(s.TierDischarged))
		}
	}

	for _, p := range rep.Procedures {
		if o.Stats {
			line := fmt.Sprintf("%s: LOC=%d SLOC=%d IPVars=%d IPSize=%d CPU=%s space=%.1fMB msgs=%d",
				p.Name, p.LOC, p.SLOC, p.IPVars, p.IPSize,
				p.CPU.Round(1e6), float64(p.Space)/1e6, len(p.Messages))
			if p.CacheStatus != "" {
				line += " cache=" + p.CacheStatus
			}
			fmt.Fprintln(w, line)
		}
		if o.DumpIP {
			fmt.Fprintln(w, p.IntegerProgram())
		}
		if p.Cascade != nil {
			if o.Stats {
				for _, t := range p.Cascade.Tiers {
					fmt.Fprintf(w, "%s: cascade %s: %dx%d IP, discharged %d/%d, cpu=%s\n",
						p.Name, t.Domain, t.Vars, t.Stmts, t.Discharged, t.Asserts,
						t.CPU.Round(1e6))
				}
				fmt.Fprintf(w, "%s: cascade residual: %d vars x %d stmts (full IP %d x %d)\n",
					p.Name, p.Cascade.ResidualVars, p.Cascade.ResidualStmts,
					p.IPVars, p.IPSize)
				for _, c := range p.Cascade.Checks {
					verdict := "proved by " + c.Tier
					if c.Violated {
						verdict = "violated in " + c.Tier
					}
					fmt.Fprintf(w, "%s: check %s (%s): %s on %dx%d\n",
						p.Name, c.Msg, c.Pos, verdict, c.Vars, c.Stmts)
				}
			}
			if o.DumpReducedIP {
				if r := p.Cascade.Residual; r != nil {
					fmt.Fprintln(w, r.String())
				} else {
					fmt.Fprintln(w)
				}
			}
		}
		if p.Certification != nil {
			c := p.Certification
			for _, ck := range c.Checks {
				line := fmt.Sprintf("%s: certify %s (%s): %s", p.Name, ck.Msg, ck.Pos, ck.Status)
				if ck.Tier != "" {
					line += " [" + ck.Tier + "]"
				}
				if ck.Detail != "" && (ck.Status == certify.StatusFailed || !o.Quiet) {
					line += ": " + ck.Detail
				}
				fmt.Fprintln(w, line)
			}
			fmt.Fprintf(w, "%s: certification: %d certified, %d failed, %d witnessed, %d potential\n",
				p.Name, c.Certified, c.Failed, c.Witnessed, c.Potential)
			certFailed += c.Failed
		}
		if p.Degraded != nil {
			fmt.Fprintf(w, "%s: degraded (%s): %s\n", p.Name, p.Degraded.Cause, p.Degraded.Detail)
		}
		if !o.Quiet {
			for _, warn := range p.Warnings {
				fmt.Fprintf(w, "warning: %s\n", warn)
			}
		}
		for _, m := range p.Messages {
			fmt.Fprintln(w, m.Text)
			messages++
		}
		if p.DerivedRequires != "" || p.DerivedEnsures != "" {
			fmt.Fprintf(w, "%s: derived requires (%s)\n", p.Name, orTrue(p.DerivedRequires))
			fmt.Fprintf(w, "%s: derived ensures  (%s)\n", p.Name, orTrue(p.DerivedEnsures))
		}
	}
	if certFailed > 0 {
		// A rejected certificate means the analyzer (or the certificate
		// exporter) is wrong — more severe than any reported message.
		fmt.Fprintf(w, "cssv: %d certificate(s) FAILED verification\n", certFailed)
		return messages, certFailed
	}
	if messages == 0 {
		fmt.Fprintln(w, "cssv: no string manipulation errors detected")
		return 0, 0
	}
	fmt.Fprintf(w, "cssv: %d message(s)\n", messages)
	return messages, certFailed
}

func orTrue(s string) string {
	if s == "" {
		return "true"
	}
	return s
}

// formatTierDischarged renders the per-tier discharge counts in sorted
// tier order (map iteration alone would be nondeterministic output).
func formatTierDischarged(m map[string]int) string {
	tiers := make([]string, 0, len(m))
	for t := range m {
		tiers = append(tiers, t)
	}
	sort.Strings(tiers)
	parts := make([]string, len(tiers))
	for i, t := range tiers {
		parts[i] = fmt.Sprintf("%s:%d", t, m[t])
	}
	return strings.Join(parts, ",")
}
