// Command cssv-lint runs the repo's self-verification analyzers
// (internal/lint): the suite that mechanically enforces the soundness,
// determinism, and governance invariants the compiler cannot see.
//
// It loads the whole module (tests included) from source and runs every
// analyzer over each package:
//
//	cssv-lint [-tests=false] [-q] [module-dir]
//
// Exit status: 0 clean, 1 findings (or usage error), 2 internal error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cssv-lint [-tests=false] [-q] [module-dir]")
		flag.PrintDefaults()
		os.Exit(1)
	}
	tests := flag.Bool("tests", true, "include _test.go files")
	quiet := flag.Bool("q", false, "suppress the summary line")
	flag.Parse()

	args := flag.Args()
	dir := "."
	switch len(args) {
	case 0:
	case 1:
		dir = args[0]
	default:
		flag.Usage()
	}
	// Walk up to the module root so `cssv-lint` works from any subdir.
	root, err := findModuleRoot(dir)
	if err != nil {
		fatal(err)
	}
	l := &lint.Loader{IncludeTests: *tests}
	pkgs, err := l.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	findings, suppressed := 0, 0
	for _, pkg := range pkgs {
		res, err := lint.Run(pkg, lint.Suite())
		if err != nil {
			fatal(err)
		}
		for _, d := range res.Diags {
			fmt.Fprintf(os.Stderr, "%s\n", d)
			findings++
		}
		suppressed += len(res.Suppressed)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "cssv-lint: %d finding(s), %d suppressed by lint:allow, %d package(s)\n",
			findings, suppressed, len(pkgs))
	}
	if findings > 0 {
		os.Exit(1)
	}
}

func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cssv-lint: %v\n", err)
	os.Exit(2)
}
