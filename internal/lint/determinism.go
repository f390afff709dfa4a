package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// determinismScope lists the packages whose output feeds report
// assembly, hashing, or user-visible emission — the surface covered by
// the Workers=1 vs Workers=8 deep-equal determinism tests. New packages
// on that path must be added here (DESIGN.md §8).
var determinismScope = []string{
	ModulePath,
	ModulePath + "/internal/core",
	ModulePath + "/internal/analysis",
	ModulePath + "/internal/table5",
	ModulePath + "/internal/derive",
}

// Determinism guards the bit-identical-reports contract. In scope
// packages (non-test files) it flags:
//
//   - iteration over a map that appends to a slice never subsequently
//     sorted in the same function, or that emits output directly from
//     the loop body: map order is randomized per run, so both launder
//     nondeterminism into report content;
//   - calls to time.Now/time.Since/time.Until whose result does not flow
//     into the sanctioned timing-stats idiom (an anchor variable later
//     passed to time.Since, or an assignee whose name contains
//     CPU/Wall/Time/Duration/Elapsed — the fields the determinism tests
//     strip before comparing);
//   - any import of math/rand: randomness never belongs on the report
//     path (the directed interpreter takes a caller-seeded source and
//     lives outside this scope);
//   - calls to fmt.Print/Printf/Println: the implicit-stdout variants
//     interleave debug text into report output (reports flow through the
//     caller's writer; debug traces belong on os.Stderr).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "keep map order, wall-clock time, and randomness out of report content",
	Run:  runDeterminism,
}

// timingName matches identifiers and fields that carry timing
// statistics: the only sanctioned sink for wall-clock values.
var timingName = regexp.MustCompile(`(?i)cpu|wall|time|duration|elapsed|deadline`)

func runDeterminism(pass *Pass) error {
	inScope := false
	for _, p := range determinismScope {
		if pass.Path == p {
			inScope = true
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		imports := importTable(f)
		for _, imp := range f.Imports {
			if imp.Path.Value == `"math/rand"` || imp.Path.Value == `"math/rand/v2"` {
				pass.Report(imp.Pos(),
					"math/rand on the report path: results must be bit-identical across runs and worker counts")
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd.Body)
			checkClockCalls(pass, imports, fd.Body)
			checkStdoutPrints(pass, imports, fd.Body)
		}
	}
	return nil
}

// checkMapRanges flags map iterations whose ordering can reach output.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapRange(pass, rs) {
			return true
		}
		// Direct emission from the loop body is always order-dependent.
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && emitName(sel.Sel.Name) {
				pass.Report(call.Pos(),
					"emitting output while ranging over a map: iteration order is randomized; collect and sort first")
			}
			return true
		})
		// Appends that accumulate the iteration into a slice are fine
		// only when the slice is sorted later in the same function.
		for _, target := range appendTargets(rs.Body) {
			if !sortedAfter(pass, body, rs, target) {
				pass.Report(target.Pos(),
					"map iteration appends to %s, which is never sorted in this function: order is randomized per run; sort it (or annotate //lint:allow determinism <reason>)",
					target.Name)
			}
		}
		return true
	})
}

func isMapRange(pass *Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func emitName(name string) bool {
	switch name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln",
		"Write", "WriteString", "WriteByte", "WriteRune":
		return true
	}
	return false
}

// appendTargets returns the distinct identifiers x for statements of the
// form x = append(x, ...) inside the loop body.
func appendTargets(body ast.Node) []*ast.Ident {
	seen := map[string]bool{}
	var out []*ast.Ident
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
			return true
		}
		if !seen[id.Name] {
			seen[id.Name] = true
			out = append(out, id)
		}
		return true
	})
	return out
}

// sortedAfter reports whether, somewhere after the range statement in
// the same function body, target is passed to a sort.* or slices.*
// call.
func sortedAfter(pass *Pass, body *ast.BlockStmt, rs *ast.RangeStmt, target *ast.Ident) bool {
	obj := pass.TypesInfo.ObjectOf(target)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				if id.Name == target.Name &&
					(obj == nil || pass.TypesInfo.ObjectOf(id) == obj) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// checkClockCalls flags wall-clock reads outside the timing-stats idiom.
func checkClockCalls(pass *Pass, imports map[string]string, body *ast.BlockStmt) {
	// anchors collects `x := time.Now()` identifiers; a later
	// time.Since(x) legitimizes them.
	type clockUse struct {
		call   *ast.CallExpr
		sel    string // Now, Since, Until
		anchor string // assigned identifier, "" if none
		field  string // assigned selector field, "" if none
	}
	var uses []clockUse
	sinceArgs := map[string]bool{}

	record := func(as *ast.AssignStmt) {
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		call, sel := timeCall(imports, as.Rhs[0])
		if call == nil {
			return
		}
		u := clockUse{call: call, sel: sel}
		switch lhs := as.Lhs[0].(type) {
		case *ast.Ident:
			u.anchor = lhs.Name
		case *ast.SelectorExpr:
			u.field = lhs.Sel.Name
		}
		uses = append(uses, u)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			record(n)
		case *ast.CallExpr:
			if _, sel := timeCall(imports, n); sel == "Since" {
				if len(n.Args) == 1 {
					if id, ok := n.Args[0].(*ast.Ident); ok {
						sinceArgs[id.Name] = true
					}
				}
			}
		}
		return true
	})

	flagged := map[*ast.CallExpr]bool{}
	for _, u := range uses {
		ok := false
		switch u.sel {
		case "Now":
			// An anchor consumed by time.Since is the timing idiom.
			ok = u.anchor != "" && (sinceArgs[u.anchor] || timingName.MatchString(u.anchor))
		case "Since", "Until":
			name := u.field
			if name == "" {
				name = u.anchor
			}
			ok = timingName.MatchString(name)
		}
		if ok {
			flagged[u.call] = true
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		call, sel := timeCall(imports, n)
		if call == nil || flagged[call] {
			return true
		}
		// Nested Since inside an allowed assignment was already marked;
		// anything else reaching here escaped the idiom.
		for _, u := range uses {
			if u.call == call {
				pass.Report(call.Pos(),
					"time.%s outside the timing-stats idiom: wall-clock values must only feed stats fields the determinism tests strip (assign to a *CPU/*Wall/*Duration name, or anchor a time.Since)", sel)
				return true
			}
		}
		pass.Report(call.Pos(),
			"time.%s outside the timing-stats idiom: wall-clock values must not influence report content", sel)
		return true
	})
}

// checkStdoutPrints flags the implicit-stdout fmt variants: analysis and
// report code must write through the caller's writer (or os.Stderr for
// debug traces), never the process's stdout, which carries the report.
func checkStdoutPrints(pass *Pass, imports map[string]string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || imports[pkg.Name] != "fmt" {
			return true
		}
		switch sel.Sel.Name {
		case "Print", "Printf", "Println":
			pass.Report(call.Pos(),
				"fmt.%s writes to process stdout from the report path: use the caller's writer, or fmt.Fprintf(os.Stderr, ...) for debug traces", sel.Sel.Name)
		}
		return true
	})
}

// timeCall reports whether n is a call to time.Now/Since/Until via the
// file's real import of the time package.
func timeCall(imports map[string]string, n ast.Node) (*ast.CallExpr, string) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || imports[pkg.Name] != "time" {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Now", "Since", "Until":
		return call, sel.Sel.Name
	}
	return nil, ""
}
