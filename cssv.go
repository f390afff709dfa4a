// Package cssv is a Go implementation of CSSV (C String Static Verifier),
// the sound static analyzer for C string manipulation errors of
//
//	Nurit Dor, Michael Rodeh, Mooly Sagiv:
//	"CSSV: Towards a Realistic Tool for Statically Detecting All Buffer
//	Overflows in C", PLDI 2003.
//
// CSSV analyzes each procedure separately against programmer-supplied (or
// automatically derived) contracts. The pipeline (paper Fig. 1):
//
//  1. contracts are inlined as assume/assert statements and the program is
//     normalized to CoreC;
//  2. a whole-program flow-insensitive pointer analysis yields procedural
//     points-to information, biased so formal parameters admit strong
//     updates (the Fig. 7 "parameterizable" merge);
//  3. the C2IP transformation produces a nondeterministic integer program
//     over constraint variables (offsets, allocation sizes, string lengths,
//     terminator flags);
//  4. a linear-relation analysis over convex polyhedra (Cousot–Halbwachs)
//     checks every assertion and reports counter-examples for the rest.
//
// Being conservative, CSSV reports every runtime string error, at the cost
// of occasional false alarms.
//
// Quick start:
//
//	rep, err := cssv.Analyze("prog.c", source, cssv.Config{})
//	for _, p := range rep.Procedures {
//	    for _, m := range p.Messages {
//	        fmt.Println(m.Text)
//	    }
//	}
package cssv

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/c2ip"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/derive"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/ppt"
)

// Config selects analysis variants. The zero value is the paper's
// configuration: polyhedra domain, inclusion-based pointer analysis,
// manual contracts, PPT merging on.
type Config struct {
	// Domain: "polyhedra" (default), "interval", or "zone".
	Domain string
	// Pointer: "inclusion" (default) or "unification".
	Pointer string
	// Target selects the object-layout data model: "paper32" (default) is
	// the paper's packed 32-bit model; "sysv64" applies the System V AMD64
	// ABI rules (8-byte pointers, alignment padding, bitfield storage
	// units) and enables the field-sensitive member-store transfer and
	// access-path location naming.
	Target string
	// Contracts: "manual" (default), "vacuous" (side effects only), or
	// "auto" (derive pre/postconditions first, paper §4).
	Contracts string
	// Procedures restricts the analysis; nil analyzes every defined
	// procedure.
	Procedures []string
	// DisablePPTMerging turns off the Fig. 7 strong-update merge
	// (for ablation: every update through a formal becomes weak).
	DisablePPTMerging bool
	// NaiveC2IP selects the O(S*V^2) translation of the authors' earlier
	// tool [13] (for the §3.4.2.4 complexity comparison).
	NaiveC2IP bool
	// StrictZeroStore uses the guarded null-store transfer instead of the
	// paper's Table 4 rule (see DESIGN.md).
	StrictZeroStore bool
	// Workers bounds how many procedures are analyzed concurrently. CSSV
	// verifies each procedure separately against contracts, so the
	// per-procedure pipelines are independent and fan out over a bounded
	// worker pool; results are deterministic (input order, identical
	// messages) for every worker count. 0 uses all CPUs
	// (runtime.GOMAXPROCS); 1 forces the sequential driver, which is also
	// the only mode in which Procedure.Space is measured.
	Workers int
	// Cascade discharges checks in tiers: the integer program is reduced
	// (unreachable-node pruning, constant/copy propagation, per-assertion
	// backward slicing), the interval domain proves what it can, the zone
	// domain takes the residue, and the configured Domain (polyhedra by
	// default) analyzes only the slice of the checks the cheap tiers could
	// not prove. Reported messages are unchanged; per-tier statistics
	// appear in Procedure.Cascade.
	Cascade bool
	// Certify validates the analysis a posteriori. Every discharged check
	// yields an invariant certificate that an independent Fourier–Motzkin
	// checker (exact rational arithmetic, no polyhedra code) re-proves, and
	// every reported message is replayed through a deterministic directed
	// interpreter of the integer program and classified "witnessed" (a
	// concrete trace reaches the failing check) or "potential" (possible
	// false alarm). Results appear in Procedure.Certification.
	Certify bool
	// ProcTimeout bounds the wall-clock time of each procedure's pipeline
	// (0 = unlimited). On expiry the analysis degrades gracefully: the
	// procedure's remaining checks are reported as unresolved potential
	// errors (never silently "safe"), Procedure.Degraded records the
	// cause, and the run completes.
	ProcTimeout time.Duration
	// StepBudget bounds the fixpoint iterations per procedure
	// (0 = unlimited). Exhaustion degrades exactly like ProcTimeout but
	// is fully deterministic.
	StepBudget int
	// CacheDir enables the content-addressed on-disk result cache rooted at
	// this directory (created if missing). Results are keyed by structural
	// hashes of the procedure body, the run configuration, and the textual
	// environment (other declarations, libc prelude, the procedure's own
	// contract, raw source positions). An exact hit replays the stored
	// result; when only the environment changed, the stored invariant
	// certificates are re-proved by the independent Fourier–Motzkin checker
	// instead of re-running the fixpoint (the certificate-revalidation fast
	// path). Corrupt or tampered entries are detected, logged, counted in
	// RunStats.CacheBadEntries / CacheCertRejected, and analyzed around —
	// never trusted. Reports are byte-identical to an uncached run.
	CacheDir string
	// CacheVerify re-proves the certificates and re-checks the assert
	// accounting of every exact cache hit before trusting it (paranoid
	// mode; integrity digests are always verified regardless).
	CacheVerify bool
}

// Message is one potential string error.
type Message struct {
	// Pos is the blamed source position ("file:line:col").
	Pos string
	// Text describes the violated requirement.
	Text string
	// CounterExample assigns constraint variables values under which the
	// requirement fails (paper Fig. 8); may be empty.
	CounterExample map[string]string
	// Unverifiable marks conditions outside linear arithmetic.
	Unverifiable bool
	// Unresolved marks checks the analysis gave up on (budget exhausted
	// or the procedure's pipeline panicked); they are conservatively
	// reported as potential errors.
	Unresolved bool
}

// Procedure is the per-procedure result (one row of the paper's Table 5).
type Procedure struct {
	Name string
	// LOC and SLOC: source lines before/after the source-to-source
	// transformations.
	LOC, SLOC int
	// IPVars and IPSize: constraint variables and statements of the
	// generated integer program.
	IPVars, IPSize int
	// CPU is the elapsed time of the procedure's pipeline. Space is the
	// process-wide heap-allocation delta around it, measured only under
	// Workers == 1 (0 otherwise: a global counter cannot attribute
	// allocations to one procedure while others run concurrently).
	CPU   time.Duration
	Space uint64
	// Messages are the reported potential errors; Warnings are
	// non-blocking notes (e.g. non-constant format strings).
	Messages []Message
	Warnings []string
	// DerivedRequires / DerivedEnsures carry the auto-derived contract
	// under Contracts: "auto".
	DerivedRequires string
	DerivedEnsures  string
	// Cascade holds the tier statistics and per-check provenance under
	// Config.Cascade (nil otherwise).
	Cascade *CascadeStats
	// Certification holds the per-check certification outcome under
	// Config.Certify (nil otherwise).
	Certification *CertificationStats
	// Degraded is non-nil when this procedure's analysis did not run to
	// completion (budget exhausted or panic isolated); its unresolved
	// checks appear in Messages.
	Degraded *Degradation
	// CacheStatus records, under Config.CacheDir, how the result cache
	// participated: "hit" (exact replay), "revalidated" (certificates
	// re-proved, no fixpoint), "stored" (fresh result written), "uncached"
	// (result not storable), or "" (caching disabled).
	CacheStatus string

	// prog is the C2IP output, nil when a stage upstream of C2IP produced
	// the violations.
	prog *ip.Program
}

// IntegerProgram returns the pretty-printed C2IP output, or "" when the
// pipeline stopped before C2IP. It renders the program on each call.
func (p Procedure) IntegerProgram() string {
	if p.prog == nil {
		return ""
	}
	return p.prog.String()
}

// Degradation explains why a procedure's analysis fell short of a full
// run.
type Degradation = core.Degradation

// CertificationStats summarizes one procedure's a-posteriori validation:
// its Checks in program order (every discharged check with its certificate
// verdict, every reported message with its replay verdict) and the
// Certified / Failed / Witnessed / Potential counts. A Failed certificate
// means an analyzer or exporter bug, never expected in a release build.
type CertificationStats = certify.Outcome

// CheckCertification is the certification outcome for one check.
type CheckCertification = certify.CheckResult

// CascadeStats describes how the tiered cascade discharged a procedure's
// checks: the Tiers that ran (cheapest first, each on the slice of the
// checks the previous tiers could not prove), per-check provenance in
// program order, and the Residual sub-program that reached the final tier
// (nil, with ResidualVars and ResidualStmts 0, when the cheap tiers
// discharged every check).
type CascadeStats = analysis.CascadeResult

// CascadeTier is one tier of the cascade.
type CascadeTier = analysis.TierStat

// CheckOrigin records which tier decided one check.
type CheckOrigin = analysis.CheckProvenance

// Report is the result of one analysis run.
type Report struct {
	Procedures []Procedure
	// Stats aggregates whole-run cost and cache effectiveness.
	Stats RunStats
}

// RunStats describes one analysis run.
type RunStats = core.RunStats

// Messages returns all messages across procedures.
func (r *Report) Messages() []Message {
	var out []Message
	for _, p := range r.Procedures {
		out = append(out, p.Messages...)
	}
	return out
}

// Analyze runs CSSV over C source text.
func Analyze(filename, source string, cfg Config) (*Report, error) {
	opts, err := cfg.driverOptions()
	if err != nil {
		return nil, err
	}
	rep, err := core.AnalyzeSource(filename, source, opts)
	if err != nil {
		return nil, err
	}
	out := &Report{Stats: rep.Stats}
	for i := range rep.Procs {
		out.Procedures = append(out.Procedures, convertProc(&rep.Procs[i]))
	}
	return out, nil
}

// AnalyzeFile runs CSSV over a C source file.
func AnalyzeFile(path string, cfg Config) (*Report, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Analyze(path, string(src), cfg)
}

// DeriveContracts runs the paper's §4 derivation (ASPost + AWPre) for one
// procedure and returns the derived clauses in contract-language syntax.
func DeriveContracts(filename, source, proc string) (requires, ensures string, err error) {
	prog, err := core.Prepare(filename, source)
	if err != nil {
		return "", "", err
	}
	res, err := derive.Derive(prog, proc, derive.Options{})
	if err != nil {
		return "", "", err
	}
	return res.RequiresText, res.EnsuresText, nil
}

func (cfg Config) driverOptions() (core.Options, error) {
	if cfg.Workers < 0 {
		return core.Options{}, fmt.Errorf("Workers must be >= 0, got %d", cfg.Workers)
	}
	if cfg.ProcTimeout < 0 {
		return core.Options{}, fmt.Errorf("ProcTimeout must be >= 0, got %v", cfg.ProcTimeout)
	}
	if cfg.StepBudget < 0 {
		return core.Options{}, fmt.Errorf("StepBudget must be >= 0, got %d", cfg.StepBudget)
	}
	opts := core.Options{
		Cascade:      cfg.Cascade,
		Certify:      cfg.Certify,
		CacheDir:     cfg.CacheDir,
		CacheVerify:  cfg.CacheVerify,
		Procs:        cfg.Procedures,
		Workers:      cfg.Workers,
		ProcDeadline: cfg.ProcTimeout,
		StepBudget:   cfg.StepBudget,
		PPT:          ppt.Options{DisableMerging: cfg.DisablePPTMerging},
		C2IP: c2ip.Options{
			Naive:           cfg.NaiveC2IP,
			StrictZeroStore: cfg.StrictZeroStore,
		},
	}
	switch cfg.Domain {
	case "", "polyhedra":
		opts.Domain = analysis.PolyDomain{}
	case "interval":
		opts.Domain = analysis.IntervalDomain{}
	case "zone":
		opts.Domain = analysis.ZoneDomain{}
	default:
		return opts, fmt.Errorf("unknown domain %q", cfg.Domain)
	}
	switch cfg.Pointer {
	case "", "inclusion":
	case "unification":
		opts.PointerMode = 1
	default:
		return opts, fmt.Errorf("unknown pointer mode %q", cfg.Pointer)
	}
	switch cfg.Contracts {
	case "", "manual":
		opts.Contracts = core.ManualContracts
	case "vacuous":
		opts.Contracts = core.VacuousContracts
	case "auto":
		opts.Contracts = core.AutoContracts
	default:
		return opts, fmt.Errorf("unknown contract mode %q", cfg.Contracts)
	}
	target, err := ctypes.ParseTarget(cfg.Target)
	if err != nil {
		return opts, err
	}
	opts.Target = target
	return opts, nil
}

func convertProc(pr *core.ProcReport) Procedure {
	p := Procedure{
		Name:   pr.Name,
		LOC:    pr.LOC,
		SLOC:   pr.SLOC,
		IPVars: pr.IPVars,
		IPSize: pr.IPSize,
		CPU:    pr.CPU,
		Space:  pr.Space,

		Cascade:       pr.Cascade,
		Certification: pr.Certification,
		Degraded:      pr.Degraded,
		CacheStatus:   pr.CacheStatus,
		prog:          pr.IP,
	}
	// The IP can be nil when a pipeline stage upstream of C2IP produced the
	// violations; formatting must not dereference it.
	var space *linear.Space
	if pr.IP != nil {
		space = pr.IP.Space
	}
	for _, v := range pr.Violations {
		m := Message{
			Pos:          v.Pos.String(),
			Text:         analysis.FormatViolation(v, space),
			Unverifiable: v.Unverifiable,
			Unresolved:   v.Unresolved,
		}
		if len(v.CounterExample) > 0 {
			m.CounterExample = map[string]string{}
			var names []string
			for name := range v.CounterExample {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m.CounterExample[name] = v.CounterExample[name].RatString()
			}
		}
		p.Messages = append(p.Messages, m)
	}
	for _, w := range pr.Warnings {
		p.Warnings = append(p.Warnings, fmt.Sprintf("%s: %s", w.Pos, w.Msg))
	}
	if pr.Derived != nil {
		p.DerivedRequires = pr.Derived.RequiresText
		p.DerivedEnsures = pr.Derived.EnsuresText
	}
	return p
}
