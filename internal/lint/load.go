package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked unit presented to the analyzers.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds the type-checker's complaints under the lenient
	// loader (fixtures reference deliberately-faked imports).
	TypeErrors []error
}

// A Loader parses and type-checks packages using only the standard
// library: module packages are type-checked from source in dependency
// order, standard-library imports go through the compiler's source
// importer, and (in lenient mode) anything unresolvable becomes an
// empty placeholder package so syntax-level analyzers still run.
//
// This replaces golang.org/x/tools/go/packages, which the build
// environment does not vendor. cmd/cssv-lint and TestLintSuite both
// load the whole module through it, strictly.
type Loader struct {
	// Lenient tolerates type errors and fakes unresolvable imports.
	// Fixture loading uses it; whole-module loading must not.
	Lenient bool
	// IncludeTests merges in-package _test.go files and adds external
	// test packages as their own units.
	IncludeTests bool

	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*types.Package
	goVersion string
}

func newLoaderState(l *Loader) {
	l.fset = token.NewFileSet()
	l.std = importer.ForCompiler(l.fset, "source", nil)
	l.pkgs = map[string]*types.Package{}
}

// unit is one compilation unit discovered on disk.
type unit struct {
	path  string // import path ("repro/internal/zone", "repro/internal/zone_test")
	files []*ast.File
	deps  []string // module-internal imports
}

// LoadModule discovers, parses, and type-checks every package of the
// module rooted at dir (skipping testdata, vendor, and hidden
// directories) and returns them sorted by import path.
func (l *Loader) LoadModule(dir string) ([]*Package, error) {
	newLoaderState(l)
	modPath, goVersion, err := readGoMod(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	if modPath != ModulePath {
		return nil, fmt.Errorf("module path is %q but lint rules are keyed by %q: update lint.ModulePath and the rule tables together", modPath, ModulePath)
	}
	l.goVersion = goVersion

	var dirs []string
	err = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}

	units := map[string]*unit{}
	for _, d := range dirs {
		rel, err := filepath.Rel(dir, d)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		us, err := l.parseDir(d, path)
		if err != nil {
			return nil, err
		}
		for _, u := range us {
			units[u.path] = u
		}
	}

	order, err := topoOrder(units)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, u := range order {
		pkg, err := l.check(u, units)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir parses and type-checks a single directory as the package with
// the given import path. Fixture tests use it with a lenient Loader.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	newLoaderState(l)
	us, err := l.parseDir(dir, path)
	if err != nil {
		return nil, err
	}
	u, ok := us[path]
	if !ok {
		return nil, fmt.Errorf("%s: no non-test package found", dir)
	}
	return l.check(u, us)
}

// parseDir parses a directory into up to two units: the package itself
// (with in-package test files merged when IncludeTests is set) and its
// external test package.
func (l *Loader) parseDir(dir, path string) (map[string]*unit, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var prim, xtest []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		isTest := strings.HasSuffix(e.Name(), "_test.go")
		if isTest && !l.IncludeTests {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if isTest && strings.HasSuffix(f.Name.Name, "_test") {
			xtest = append(xtest, f)
		} else {
			prim = append(prim, f)
		}
	}
	units := map[string]*unit{}
	if len(prim) > 0 {
		units[path] = &unit{path: path, files: prim, deps: moduleDeps(prim, path)}
	}
	if len(xtest) > 0 {
		xpath := path + "_test"
		deps := moduleDeps(xtest, xpath)
		if len(prim) > 0 {
			deps = append(deps, path)
		}
		units[xpath] = &unit{path: xpath, files: xtest, deps: deps}
	}
	return units, nil
}

func moduleDeps(files []*ast.File, self string) []string {
	seen := map[string]bool{}
	var deps []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != self && hasPrefixPath(p, ModulePath) && !seen[p] {
				seen[p] = true
				deps = append(deps, p)
			}
		}
	}
	sort.Strings(deps)
	return deps
}

// topoOrder sorts units so every unit follows its module dependencies.
func topoOrder(units map[string]*unit) ([]*unit, error) {
	var order []*unit
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(u *unit, chain []string) error
	visit = func(u *unit, chain []string) error {
		switch state[u.path] {
		case 1:
			return fmt.Errorf("import cycle: %s", strings.Join(append(chain, u.path), " -> "))
		case 2:
			return nil
		}
		state[u.path] = 1
		for _, dep := range u.deps {
			if du, ok := units[dep]; ok {
				if err := visit(du, append(chain, u.path)); err != nil {
					return err
				}
			}
		}
		state[u.path] = 2
		order = append(order, u)
		return nil
	}
	var paths []string
	for p := range units {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(units[p], nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// check type-checks one unit and records its package for importers of
// later units.
func (l *Loader) check(u *unit, units map[string]*unit) (*Package, error) {
	var terrs []error
	conf := types.Config{
		Importer:  &loaderImporter{l: l},
		GoVersion: l.goVersion,
		Error:     func(err error) { terrs = append(terrs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	tpkg, err := conf.Check(u.path, l.fset, u.files, info)
	if err != nil && !l.Lenient {
		return nil, fmt.Errorf("type-checking %s: %v (total %d errors)", u.path, terrs[0], len(terrs))
	}
	// The primary package (not an external test unit) becomes importable
	// by the units that follow in topological order.
	if !strings.HasSuffix(u.path, "_test") {
		l.pkgs[u.path] = tpkg
	}
	return &Package{
		Path:       u.path,
		Fset:       l.fset,
		Files:      u.files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: terrs,
	}, nil
}

// loaderImporter resolves imports during type-checking: module packages
// from the loader's cache, the rest from the GOROOT source importer,
// with empty placeholders for anything unresolvable in lenient mode.
type loaderImporter struct {
	l    *Loader
	fake map[string]*types.Package
}

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := li.l.pkgs[path]; ok {
		return pkg, nil
	}
	if !hasPrefixPath(path, ModulePath) {
		pkg, err := li.l.std.Import(path)
		if err == nil {
			return pkg, nil
		}
		if !li.l.Lenient {
			return nil, err
		}
	} else if !li.l.Lenient {
		return nil, fmt.Errorf("module package %s not loaded (dependency order bug?)", path)
	}
	if li.fake == nil {
		li.fake = map[string]*types.Package{}
	}
	if pkg, ok := li.fake[path]; ok {
		return pkg, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	li.fake[path] = pkg
	return pkg, nil
}

// readGoMod extracts the module path and Go version from a go.mod.
func readGoMod(path string) (modPath, goVersion string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
		}
		if rest, ok := strings.CutPrefix(line, "go "); ok {
			goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return "", "", fmt.Errorf("%s: no module line", path)
	}
	return modPath, goVersion, nil
}
