package lint

import (
	"strings"
)

// A LayerRule bans a set of import-path prefixes from one package (and
// its external test package is exempt: tests may cross layers to
// cross-check, as certify's polyhedra differential tests do).
type LayerRule struct {
	// Pkg is the import path the rule constrains.
	Pkg string
	// Deny lists import-path prefixes Pkg must not import.
	Deny []string
	// Why is the soundness rationale, echoed in diagnostics.
	Why string
}

// LayerRules is the module's import DAG as declared data — the full
// generalization of the old single hand-written certify import guard.
// DESIGN.md §8 documents each rule's rationale.
var LayerRules = []LayerRule{
	{
		Pkg: ModulePath + "/internal/certify",
		Deny: []string{
			ModulePath + "/internal/polyhedra",
			ModulePath + "/internal/analysis",
			ModulePath + "/internal/zone",
			ModulePath + "/internal/interval",
			ModulePath + "/internal/numkernel",
			ModulePath + "/internal/arena",
		},
		Why: "the certificate checker must share no code with the engine it checks, or agreement stops being evidence",
	},
	{
		Pkg: ModulePath + "/internal/ip",
		Deny: []string{
			ModulePath + "/internal/numkernel",
			ModulePath + "/internal/polyhedra",
			ModulePath + "/internal/zone",
			ModulePath + "/internal/interval",
			ModulePath + "/internal/analysis",
			ModulePath + "/internal/arena",
		},
		Why: "certify replays counter-examples through ip, so engine arithmetic reached through ip would reach the independent checker too",
	},
	{
		Pkg:  ModulePath + "/internal/budget",
		Deny: []string{ModulePath + "/"},
		Why:  "budget sits at the bottom of the DAG so every layer can poll it; importing anything above it would cycle the governance story",
	},
	{
		Pkg: ModulePath + "/internal/polyhedra",
		Deny: []string{
			ModulePath + "/internal/core",
			ModulePath + "/internal/analysis",
			ModulePath + "/internal/table5",
			ModulePath + "/internal/c2ip",
		},
		Why: "numeric substrates stay below the engine and driver layers; per-run state reaches them only through Config",
	},
	{
		Pkg: ModulePath + "/internal/zone",
		Deny: []string{
			ModulePath + "/internal/core",
			ModulePath + "/internal/analysis",
			ModulePath + "/internal/table5",
			ModulePath + "/internal/c2ip",
		},
		Why: "numeric substrates stay below the engine and driver layers; per-run state reaches them only through Config",
	},
	{
		Pkg: ModulePath + "/internal/interval",
		Deny: []string{
			ModulePath + "/internal/core",
			ModulePath + "/internal/analysis",
			ModulePath + "/internal/table5",
			ModulePath + "/internal/c2ip",
		},
		Why: "numeric substrates stay below the engine and driver layers; per-run state reaches them only through Config",
	},
	{
		Pkg:  ModulePath + "/internal/numkernel",
		Deny: []string{ModulePath + "/"},
		Why:  "the hybrid arithmetic kernel is a leaf: it must stay substitutable for pure big.Int arithmetic in differential fuzzing",
	},
	{
		Pkg:  ModulePath + "/internal/arena",
		Deny: []string{ModulePath + "/"},
		Why:  "the arena is a leaf below every substrate: recycled memory must carry no knowledge of what it stores, and a nil arena must remain a complete no-op",
	},
	{
		Pkg: ModulePath + "/internal/cache",
		Deny: []string{
			ModulePath + "/internal/analysis",
			ModulePath + "/internal/polyhedra",
			ModulePath + "/internal/zone",
			ModulePath + "/internal/interval",
			ModulePath + "/internal/numkernel",
			ModulePath + "/internal/core",
		},
		Why: "the cache stores claims the independent checker can re-prove; linking the engine (or any substrate it runs on) would let cached verdicts depend on the code whose results they replace",
	},
	{
		Pkg:  ModulePath + "/internal/schedule",
		Deny: []string{ModulePath + "/"},
		Why:  "the package only names the fixed tier schedule in the cache-key fingerprint; it stays a leaf so that fingerprint constant can never depend on analysis code",
	},
	{
		Pkg: ModulePath + "/internal/lint",
		Deny: []string{
			ModulePath + "/internal/",
			ModulePath + "/cmd/",
		},
		Why: "the enforcement layer must not link the code it polices, for the same reason the certificate checker is independent",
	},
}

// Layering enforces LayerRules on non-test files. Test files are exempt
// by design: differential tests deliberately import across layers (the
// certify tests cross-check the Fourier–Motzkin checker against
// polyhedra — that is their entire point).
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "enforce the declared import DAG (checker independence, budget at the bottom, substrates below the driver)",
	Run:  runLayering,
}

func runLayering(pass *Pass) error {
	var rules []LayerRule
	for _, r := range LayerRules {
		if pass.Path == r.Pkg {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			for _, r := range rules {
				for _, deny := range r.Deny {
					// A trailing slash denies a whole subtree; otherwise
					// deny the package and its subtree, but never a mere
					// sibling name prefix (core vs corec).
					banned := strings.HasSuffix(deny, "/") && strings.HasPrefix(path, deny) ||
						hasPrefixPath(path, strings.TrimSuffix(deny, "/"))
					if banned {
						pass.Report(imp.Pos(),
							"%s must not import %s: %s", pass.Path, path, r.Why)
					}
				}
			}
		}
	}
	return nil
}
