package c2ip

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/corec"
	"repro/internal/cparse"
	"repro/internal/inline"
	"repro/internal/pointer"
	"repro/internal/ppt"
)

// transform runs the front half of the pipeline and C2IP for one function.
func transform(t *testing.T, src, fn string, opts Options) string {
	t.Helper()
	nprog, fd, g := frontEnd(t, src, fn)
	pt := ppt.Build(nprog, fd, g, ppt.Options{})
	res, err := Transform(nprog, fd, pt, opts)
	if err != nil {
		t.Fatalf("c2ip: %v", err)
	}
	return res.Prog.String()
}

// frontEnd parses, inlines and renormalizes src for fn, and returns the
// program, fn's inlined body and the whole-program points-to result.
func frontEnd(t *testing.T, src, fn string) (*corec.Program, *cast.FuncDecl, *pointer.Result) {
	t.Helper()
	f, err := cparse.ParseFile("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := corec.Normalize(f)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	inlined, err := inline.File(prog, fn)
	if err != nil {
		t.Fatalf("inline: %v", err)
	}
	nprog, err := corec.Renormalize(prog, inlined)
	if err != nil {
		t.Fatalf("renormalize: %v", err)
	}
	return nprog, nprog.File.Lookup(fn), pointer.Analyze(nprog, pointer.Inclusion)
}

// TestC2IPTable4Alloc: p = malloc(i) sets offset 0, aSize from the
// argument, and clears the terminator flag (Table 4 row 2).
func TestC2IPTable4Alloc(t *testing.T) {
	void := `
void *malloc(int n);
void f(int n) {
    char *p;
    p = (char*)malloc(n);
}
`
	ipText := transform(t, void, "f", Options{})
	// The cast binds the malloc result to a temp first; the offset-zero
	// rule fires there and p copies it.
	for _, want := range []string{
		".offset := 0",
		".aSize := lv(n).val",
		".is_nullt := 0",
	} {
		if !strings.Contains(ipText, want) {
			t.Errorf("missing %q in:\n%s", want, ipText)
		}
	}
}

// TestC2IPTable4PointerArith: p = q + i updates the offset linearly and
// emits the Table 3 arithmetic check 0 <= off + i <= aSize.
func TestC2IPTable4PointerArith(t *testing.T) {
	src := `
void f(char *q, int i) {
    char *p;
    p = q + i;
}
`
	ipText := transform(t, src, "f", Options{})
	if !strings.Contains(ipText, "lv(p).offset := lv(q).offset + lv(i).val") {
		t.Errorf("offset transfer missing:\n%s", ipText)
	}
	if !strings.Contains(ipText, "assert(lv(q).offset + lv(i).val >= 0 && rv(q).aSize - lv(q).offset - lv(i).val >= 0)") {
		t.Errorf("Table 3 arithmetic check missing:\n%s", ipText)
	}
}

// TestC2IPTable4ZeroStore: *p = '\0' makes p's position the terminator
// (Table 4, destructive update case i).
func TestC2IPTable4ZeroStore(t *testing.T) {
	src := `
void f(char *p) {
    *p = '\0';
}
`
	ipText := transform(t, src, "f", Options{})
	if !strings.Contains(ipText, ".len := lv(p).offset") {
		t.Errorf("len update missing:\n%s", ipText)
	}
	if !strings.Contains(ipText, ".is_nullt := 1") {
		t.Errorf("terminator flag update missing:\n%s", ipText)
	}
}

// TestC2IPTable3DerefCheck: a character read gets the full cleanness
// disjunction; a write gets the pure bounds check.
func TestC2IPTable3DerefCheck(t *testing.T) {
	src := `
void f(char *p) {
    char c;
    c = *p;
    *p = 'x';
}
`
	ipText := transform(t, src, "f", Options{})
	// Read: (off>=0 && nt=1 && len-off>=0) || (off>=0 && nt=0 && aSize-off-1>=0)
	if !strings.Contains(ipText, "rv(p).is_nullt = 1 && rv(p).len - lv(p).offset >= 0") {
		t.Errorf("read cleanness disjunct missing:\n%s", ipText)
	}
	if !strings.Contains(ipText, "rv(p).is_nullt = 0 && rv(p).aSize - lv(p).offset >= 1") {
		t.Errorf("read bounds disjunct missing:\n%s", ipText)
	}
	// Write: plain bounds.
	if !strings.Contains(ipText, "assert(lv(p).offset >= 0 && rv(p).aSize - lv(p).offset >= 1); // write through *p") {
		t.Errorf("write bounds check missing:\n%s", ipText)
	}
}

// TestC2IPTable4Conditions: pointer comparisons become offset comparisons
// (Table 4: p > q -> lvp.offset > lvq.offset).
func TestC2IPTable4Conditions(t *testing.T) {
	src := `
void f(char *p, char *q) {
    int x;
    x = 0;
    if (p > q) { x = 1; }
}
`
	ipText := transform(t, src, "f", Options{})
	// The normalizer inverts the condition ("if (p <= q) skip the body").
	if !strings.Contains(ipText, "if (-lv(p).offset + lv(q).offset >= 0) goto") {
		t.Errorf("pointer comparison not translated to offsets:\n%s", ipText)
	}
}

// TestC2IPConditionInterpretation: "t = *p; if (t == 0)" is enriched with
// the terminator equation (§3.4.2.2).
func TestC2IPConditionInterpretation(t *testing.T) {
	src := `
void f(char *p) {
    char c;
    int n;
    n = 0;
    c = *p;
    if (c == '\0') { n = 1; }
}
`
	ipText := transform(t, src, "f", Options{})
	if !strings.Contains(ipText, "rv(p).len - lv(p).offset = 0") {
		t.Errorf("terminator enrichment missing on the == 0 branch:\n%s", ipText)
	}
}

// TestC2IPWeakUpdates: a summary location (heap node allocated in a loop)
// forces if(unknown)-guarded updates (§3.4.2.3).
func TestC2IPWeakUpdates(t *testing.T) {
	src := `
void *malloc(int n);
void f(int k) {
    char *p;
    int i;
    i = 0;
    while (i < k) {
        p = (char*)malloc(8);
        *p = '\0';
        i = i + 1;
    }
}
`
	ipText := transform(t, src, "f", Options{})
	if !strings.Contains(ipText, "if (unknown) goto") {
		t.Errorf("no weak update emitted for a loop allocation site:\n%s", ipText)
	}
}

// TestC2IPContractAttributes: the Table 4 attribute translations
// (p.alloc -> aSize - offset, p.strlen -> len - offset, is_nullt).
func TestC2IPContractAttributes(t *testing.T) {
	src := `
void f(char *p)
    requires (is_nullt(p) && alloc(p) > strlen(p) + 2 && offset(p) == 0)
{
    *p = 'x';
}
`
	ipText := transform(t, src, "f", Options{})
	for _, want := range []string{
		"rv(p).is_nullt = 1",            // is_nullt(p)
		"rv(p).len - lv(p).offset >= 0", // ... and the string starts at or after p
		"rv(p).aSize",                   // alloc attribute
		"lv(p).offset = 0",              // offset(p) == 0
	} {
		if !strings.Contains(ipText, want) {
			t.Errorf("missing %q in:\n%s", want, ipText)
		}
	}
}

// TestC2IPUnverifiable: contract conditions outside linear arithmetic are
// flagged conservatively rather than dropped.
func TestC2IPUnverifiable(t *testing.T) {
	src := `
void g(int a, int b)
    requires (a * b >= 0);
void f(int x, int y) {
    g(x, y);
}
`
	ipText := transform(t, src, "f", Options{})
	if !strings.Contains(ipText, "assert(false)") {
		t.Errorf("nonlinear precondition should yield a conservative assert:\n%s", ipText)
	}
}

// TestC2IPNaiveMode: the [13]-style translation allocates per-pair offset
// variables.
func TestC2IPNaiveMode(t *testing.T) {
	src := `
void f(int c) {
    char a[8];
    char b[8];
    char *p;
    p = a;
    if (c) { p = b; }
    p = p + 1;
}
`
	normal := transform(t, src, "f", Options{})
	naive := transform(t, src, "f", Options{Naive: true})
	if !strings.Contains(naive, ".offset@") {
		t.Errorf("naive mode did not allocate pair variables:\n%s", naive)
	}
	if strings.Contains(normal, ".offset@") {
		t.Error("normal mode leaked pair variables")
	}
	if len(naive) <= len(normal) {
		t.Error("naive translation should be strictly larger")
	}
}

// TestC2IPSprintfDerivedContract: sprintf gets a per-call-site contract
// from its constant format string (§3.4.2.3).
func TestC2IPSprintfDerivedContract(t *testing.T) {
	src := `
int sprintf(char *s, char *format, ...);
char buf[16];
void f(char *name)
    requires (is_nullt(name))
{
    sprintf(buf, "hi %s", name);
}
`
	ipText := transform(t, src, "f", Options{})
	if !strings.Contains(ipText, "sprintf output fits the destination buffer") {
		t.Errorf("derived sprintf precondition missing:\n%s", ipText)
	}
	if !strings.Contains(ipText, "%s argument of sprintf must be null-terminated") {
		t.Errorf("%%s argument check missing:\n%s", ipText)
	}
}

// TestC2IPNonConstantFormatWarns reproduces the paper's "CSSV warns in
// cases where the format parameter is not a constant".
func TestC2IPNonConstantFormatWarns(t *testing.T) {
	src := `
int sprintf(char *s, char *format, ...);
char buf[16];
void f(char *fmt)
    requires (is_nullt(fmt))
{
    sprintf(buf, fmt);
}
`
	f, _ := cparse.ParseFile("t.c", src)
	prog, _ := corec.Normalize(f)
	inlined, _ := inline.File(prog, "f")
	nprog, _ := corec.Renormalize(prog, inlined)
	fd := nprog.File.Lookup("f")
	g := pointer.Analyze(nprog, pointer.Inclusion)
	pt := ppt.Build(nprog, fd, g, ppt.Options{})
	res, err := Transform(nprog, fd, pt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w.Msg, "format parameter is not a constant") {
			found = true
		}
	}
	if !found {
		t.Errorf("no warning for non-constant format; warnings: %v", res.Warnings)
	}
}

// TestC2IPUnprojectedGlobal: a PPT that lacks a global the body needs (its
// projection drifted from C2IP's call dispatch) is a transformation error,
// not a silently dropped write. The PPT is built for a body that does not
// touch the global and then paired with one that does.
func TestC2IPUnprojectedGlobal(t *testing.T) {
	const decls = `
int count;
char buf[8];
void h();
`
	const plain = decls + `void f(int n) { n = n + 1; }`
	cases := []struct{ name, body string }{
		{"named", decls + `void f(int n) { n = n + 1; count = n; }`},
		{"worst-case call", decls + `void f(int n) { n = n + 1; h(); }`},
	}
	pprog, pfd, pg := frontEnd(t, plain, "f")
	stale := ppt.Build(pprog, pfd, pg, ppt.Options{})
	if _, ok := stale.Lv("count"); ok || !stale.Unprojected("count") {
		t.Fatalf("f's own PPT should project count out:\n%s", stale)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, fd, g := frontEnd(t, c.body, "f")
			if _, err := Transform(prog, fd, ppt.Build(prog, fd, g, ppt.Options{}), Options{}); err != nil {
				t.Fatalf("with its own PPT: %v", err)
			}
			_, err := Transform(prog, fd, stale, Options{})
			if err == nil || !strings.Contains(err.Error(), "does not project") {
				t.Fatalf("Transform with a PPT missing a needed global: err = %v, want a projection error", err)
			}
		})
	}
}
