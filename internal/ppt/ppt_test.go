package ppt

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/corec"
	"repro/internal/cparse"
	"repro/internal/pointer"
)

const skipLineMain = `
void SkipLine(int NbLine, char **PtrEndText) {
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
    char buf[1024];
    char *r;
    char *s;
    r = buf;
    SkipLine(1, &r);
    s = r;
    SkipLine(1, &s);
}
`

func buildFor(t *testing.T, src, fn string, opts Options) (*PPT, *corec.Program) {
	t.Helper()
	f, err := cparse.ParseFile("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := corec.Normalize(f)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	g := pointer.Analyze(prog, pointer.Inclusion)
	fd := prog.File.Lookup(fn)
	if fd == nil {
		t.Fatalf("function %s not found", fn)
	}
	return Build(prog, fd, g, opts), prog
}

// TestFig6PPT reproduces the paper's Fig. 6(b): after merging, PtrEndText
// points to the single non-summary rv(PtrEndText), which points to the
// buffer.
func TestFig6PPT(t *testing.T) {
	p, _ := buildFor(t, skipLineMain, "SkipLine", Options{})
	lv, ok := p.Lv("PtrEndText")
	if !ok {
		t.Fatal("PtrEndText location missing")
	}
	rvs := p.Pt(lv)
	if len(rvs) != 1 {
		t.Fatalf("PtrEndText R-value set = %d locations, want 1 (merged); PPT:\n%s", len(rvs), p)
	}
	rv := p.Loc(rvs[0])
	if rv.Summary {
		t.Error("merged rv(PtrEndText) must be non-summary")
	}
	if !strings.Contains(rv.Name, "rv(PtrEndText)") {
		t.Errorf("merged node name = %q, want rv(PtrEndText)", rv.Name)
	}
	// rv(PtrEndText) points to the buffer.
	if len(p.Pt(rv.ID)) != 1 {
		t.Fatalf("rv(PtrEndText) targets = %v", p.Pt(rv.ID))
	}
	buf := p.Loc(p.Pt(rv.ID)[0])
	if buf.Size != 1024 {
		t.Errorf("buffer size = %d, want 1024", buf.Size)
	}
	// The local PtrEndLoc must be aliased to the same buffer.
	loc, _ := p.Lv("PtrEndLoc")
	if len(p.Pt(loc)) != 1 || p.Pt(loc)[0] != buf.ID {
		t.Errorf("PtrEndLoc should point to the merged buffer, got %v", p.Pt(loc))
	}
	found := false
	for _, m := range p.MergedFormals {
		if m == "PtrEndText" {
			found = true
		}
	}
	if !found {
		t.Error("PtrEndText not recorded as merged")
	}
}

func TestParameterizableDisabled(t *testing.T) {
	p, _ := buildFor(t, skipLineMain, "SkipLine", Options{DisableMerging: true})
	lv, _ := p.Lv("PtrEndText")
	if len(p.Pt(lv)) != 2 {
		t.Errorf("without merging PtrEndText should keep 2 targets, got %d", len(p.Pt(lv)))
	}
}

// TestParameterizableRejectsVisibleTarget: a formal pointing at globals is
// not parameterizable when f can reach a global on its own: by naming it,
// through an uncontracted call (which havocs everything reachable from
// every global), or through a contracted callee whose modifies names it.
func TestParameterizableRejectsVisibleTarget(t *testing.T) {
	cases := []struct{ name, decls, stmt string }{
		{"named", "", "gbuf[0] = 'y';"},
		{"uncontracted call", "void h();", "h();"},
		{"contracted call", "void h() modifies (gbuf);", "h();"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := `
char gbuf[10];
char other[10];
` + c.decls + `
void f(char *p) {
    *p = 'x';
    ` + c.stmt + `
}
void main() {
    f(gbuf);
    f(other);
}
`
			p, _ := buildFor(t, src, "f", Options{})
			lv, _ := p.Lv("p")
			if len(p.Pt(lv)) != 2 {
				t.Errorf("merge must be rejected when f reaches a target global; got %d targets\n%s", len(p.Pt(lv)), p)
			}
			for _, m := range p.MergedFormals {
				if m == "p" {
					t.Error("p wrongly recorded as merged")
				}
			}
		})
	}
}

// TestParameterizableMergesUnreachableGlobals: when f never names the
// globals p may point to, they are reachable inside f only through p, so
// the PPT projects them out as roots and the Fig. 7 merge succeeds.
func TestParameterizableMergesUnreachableGlobals(t *testing.T) {
	src := `
char gbuf[10];
char other[10];
void f(char *p) {
    *p = 'x';
}
void main() {
    f(gbuf);
    f(other);
}
`
	p, _ := buildFor(t, src, "f", Options{})
	lv, _ := p.Lv("p")
	if len(p.Pt(lv)) != 1 {
		t.Errorf("p's targets should merge into rv(p); got %d targets\n%s", len(p.Pt(lv)), p)
	}
	if len(p.MergedFormals) != 1 || p.MergedFormals[0] != "p" {
		t.Errorf("MergedFormals = %v, want [p]", p.MergedFormals)
	}
	for _, g := range []string{"gbuf", "other"} {
		if _, ok := p.Lv(g); ok {
			t.Errorf("%s should not be a root of f's PPT", g)
		}
		if !p.Unprojected(g) {
			t.Errorf("%s should be recorded as unprojected", g)
		}
	}
}

// TestParameterizableRejectsSharedTargets: two formals that may point to
// the same location must not be merged.
func TestParameterizableRejectsSharedTargets(t *testing.T) {
	src := `
void g(char *p, char *q) {
    *p = 'x';
    *q = 'y';
}
void main() {
    char a[4];
    char b[4];
    g(a, b);
    g(b, a);
}
`
	p, _ := buildFor(t, src, "g", Options{})
	lvp, _ := p.Lv("p")
	if len(p.Pt(lvp)) == 1 {
		t.Errorf("merge must be rejected when q can reach the same targets; PPT:\n%s", p)
	}
}

// TestInventedChain: analyzing a library procedure with no callers invents
// fresh non-summary locations for the formals (Fig. 6(b)'s N).
func TestInventedChain(t *testing.T) {
	src := `
void lib(int n, char **pp) {
    char *p;
    p = *pp;
    *p = 'x';
}
`
	p, _ := buildFor(t, src, "lib", Options{})
	lv, _ := p.Lv("pp")
	rvs := p.Pt(lv)
	if len(rvs) != 1 {
		t.Fatalf("pp should have one invented target, got %v\n%s", rvs, p)
	}
	cell := p.Loc(rvs[0])
	if !cell.Invented || cell.Summary {
		t.Errorf("invented cell wrong: %+v", cell)
	}
	bufs := p.Pt(cell.ID)
	if len(bufs) != 1 {
		t.Fatalf("invented cell should point to an invented buffer, got %v", bufs)
	}
	if !p.Loc(bufs[0]).Invented {
		t.Error("buffer should be invented")
	}
	// The local p aliases the invented buffer after the load.
	// (Pointer analysis ran on the whole program, so lv(p) has the edge.)
	lp, _ := p.Lv("p")
	if len(p.Pt(lp)) != 1 || p.Pt(lp)[0] != bufs[0] {
		t.Errorf("lv(p) should alias the invented buffer, got %v\n%s", p.Pt(lp), p)
	}
}

// TestStringLocs: string-literal buffers carry their contents.
func TestStringLocs(t *testing.T) {
	src := `
void f() {
    char *p;
    p = "abc";
}
`
	p, prog := buildFor(t, src, "f", Options{})
	_ = prog
	lv, _ := p.Lv("p")
	rvs := p.Pt(lv)
	if len(rvs) != 1 {
		t.Fatalf("p targets = %v", rvs)
	}
	l := p.Loc(rvs[0])
	if !l.IsString || l.StringVal != "abc" {
		t.Errorf("string loc = %+v, want contents abc", l)
	}
	if l.Size != 4 {
		t.Errorf("string buffer size = %d, want 4", l.Size)
	}
}

var _ = cast.ExprString
