package cssv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests guards the CI workflow against dead test
// selectors. Every alternative of every quoted -run or -bench pattern in
// .github/workflows/ci.yml must match at least one Test, Fuzz or
// Benchmark function declared in the repository's _test.go files;
// otherwise a renamed or deleted test leaves a CI step silently running
// nothing. Anchors are stripped before matching and the literal '^$'
// (run no tests) is skipped.
func TestCIRunPatternsNameTests(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	names := declaredTestNames(t, ".")
	if len(names) == 0 {
		t.Fatal("found no test functions")
	}
	flagPat := regexp.MustCompile(`-(?:run|bench) '([^']*)'`)
	patterns := flagPat.FindAllStringSubmatch(string(yml), -1)
	if len(patterns) == 0 {
		t.Fatal("found no quoted -run patterns in ci.yml")
	}
	for _, m := range patterns {
		if m[1] == "^$" {
			continue
		}
		for _, alt := range strings.Split(m[1], "|") {
			alt = strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$")
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml pattern %q: alternative %q does not compile: %v", m[1], alt, err)
				continue
			}
			found := false
			for _, n := range names {
				if re.MatchString(n) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml pattern %q: alternative %q names no Test, Fuzz or Benchmark function", m[1], alt)
			}
		}
	}
}

// declaredTestNames parses every _test.go file under root (skipping
// testdata and hidden directories) and returns the names of its
// top-level Test, Fuzz and Benchmark functions.
func declaredTestNames(t *testing.T, root string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
