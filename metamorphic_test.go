package cssv

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clex"
)

// appendRenamedCopy returns src followed by a copy of itself in which every
// file-scope identifier (each function and global variable the file
// declares) carries the suffix "_2". The copy is built from the file's
// clex tokens, so identifiers inside literals and comments, and the libc
// functions the file only calls, are left alone. The original keeps its
// line numbers; the copy follows it, preprocessed.
func appendRenamedCopy(t *testing.T, src string) string {
	t.Helper()
	pre := clex.Preprocess(src)
	toks, err := clex.Tokenize("copy.c", pre)
	if err != nil {
		t.Fatal(err)
	}
	// A file-scope declarator is an identifier outside every bracket that
	// opens a parameter list or an array bound, or ends a declaration.
	declared := map[string]bool{}
	depth := 0
	for i, tk := range toks {
		switch tk.Kind {
		case clex.LParen, clex.LBrace, clex.LBracket:
			depth++
		case clex.RParen, clex.RBrace, clex.RBracket:
			depth--
		case clex.Ident:
			if depth != 0 || i+1 >= len(toks) {
				continue
			}
			switch toks[i+1].Kind {
			case clex.LParen, clex.LBracket, clex.Semi, clex.Comma, clex.Assign:
				declared[tk.Text] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no file-scope identifiers found")
	}
	lines := strings.Split(pre, "\n")
	for i := len(toks) - 1; i >= 0; i-- {
		tk := toks[i]
		if tk.Kind != clex.Ident || !declared[tk.Text] {
			continue
		}
		line := lines[tk.Pos.Line-1]
		at := tk.Pos.Col - 1
		lines[tk.Pos.Line-1] = line[:at] + tk.Text + "_2" + line[at+len(tk.Text):]
	}
	return src + "\n" + strings.Join(lines, "\n")
}

// quietBlock renders one procedure's share of the quiet report.
func quietBlock(p Procedure) string {
	var sb strings.Builder
	Render(&sb, &Report{Procedures: []Procedure{p}}, RenderOptions{Quiet: true})
	return sb.String()
}

// TestAppendRenamedCopyLaw checks the metamorphic law of procedure-modular
// analysis: appending a renamed copy of a file to itself adds code no
// original procedure can reach, so in the paper configuration (polyhedra,
// manual contracts, one worker) every original procedure's quiet report is
// byte-identical to the one-copy run, and the copy reports as much again.
func TestAppendRenamedCopyLaw(t *testing.T) {
	for _, path := range []string{
		"testdata/airbus/airbus.c",
		"testdata/fixwrites/fixwrites.c",
		"testdata/running/skipline.c",
	} {
		name := strings.TrimSuffix(filepath.Base(path), ".c")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Workers: 1}
			one, err := Analyze(path, string(src), cfg)
			if err != nil {
				t.Fatal(err)
			}
			two, err := Analyze(path, appendRenamedCopy(t, string(src)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(two.Procedures), 2*len(one.Procedures); got != want {
				t.Fatalf("two copies: %d procedures, want %d", got, want)
			}
			if got, want := len(two.Messages()), 2*len(one.Messages()); got != want {
				t.Errorf("two copies: %d messages, want %d", got, want)
			}
			byName := map[string]Procedure{}
			for _, p := range two.Procedures {
				byName[p.Name] = p
			}
			for _, p := range one.Procedures {
				orig, ok := byName[p.Name]
				if !ok {
					t.Errorf("%s missing from the two-copy report", p.Name)
					continue
				}
				if got, want := quietBlock(orig), quietBlock(p); got != want {
					t.Errorf("%s: report changed by an unreachable copy:\n--- one copy\n%s--- two copies\n%s", p.Name, want, got)
				}
				cp, ok := byName[p.Name+"_2"]
				if !ok {
					t.Errorf("%s_2 missing from the two-copy report", p.Name)
					continue
				}
				if orig.IPVars != p.IPVars || cp.IPVars != p.IPVars {
					t.Errorf("%s: IPVars one copy %d, original %d, copy %d; want all equal",
						p.Name, p.IPVars, orig.IPVars, cp.IPVars)
				}
			}
			if name != "fixwrites" {
				return
			}
			if got, want := two.Stats.FixpointIterations, 2*one.Stats.FixpointIterations; got != want {
				t.Errorf("two copies: %d fixpoint iterations, want %d", got, want)
			}
			if two.Stats.PrecisionDrops != 0 {
				t.Errorf("two copies: %d precision drops, want 0", two.Stats.PrecisionDrops)
			}
		})
	}
}
