package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/c2ip"
	"repro/internal/concrete"
	"repro/internal/corec"
	"repro/internal/cparse"
	"repro/internal/libc"
)

// TestSoundnessDifferential checks CSSV's headline guarantee ("it can never
// miss a runtime string error", §1) empirically: random small string
// procedures are executed under the instrumented concrete semantics on many
// inputs; whenever any execution raises a string error, the static analysis
// must have reported at least one message for that procedure.
//
// Uninitialized-value errors are excluded from the obligation (CSSV tracks
// string and bounds properties, not initialization — uninitialized cells
// read as unknown values), as are step-limit aborts (non-termination is not
// a string error).
//
// The same programs run under both null-store transfers: the paper's Table 4
// rule (the default) and the fully guarded StrictZeroStore alternative.
func TestSoundnessDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential test is slow")
	}
	rng := rand.New(rand.NewSource(7))
	const trials = 60
	srcs := make([]string, trials)
	concreteErrs := make([]*concrete.RuntimeError, trials)
	checkedErrs := 0
	for trial := range srcs {
		srcs[trial] = genProgram(rng)
		// Concrete executions over a spread of inputs.
		concreteErrs[trial] = runConcrete(t, srcs[trial])
		if concreteErrs[trial] != nil {
			checkedErrs++
		}
	}
	if checkedErrs == 0 {
		t.Fatal("generator produced no erroneous programs; the test checks nothing")
	}
	for _, mode := range []struct {
		name string
		opts c2ip.Options
	}{
		{"paper-null-store", c2ip.Options{}},
		{"strict-null-store", c2ip.Options{StrictZeroStore: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for trial, src := range srcs {
				rep, err := AnalyzeSource("gen.c", src, Options{
					Procs: []string{"f"},
					C2IP:  mode.opts,
				})
				if err != nil {
					t.Fatalf("trial %d: analysis failed: %v\nsource:\n%s", trial, err, src)
				}
				if concreteErrs[trial] != nil && rep.Proc("f").Messages() == 0 {
					t.Errorf("trial %d: UNSOUND: concrete error %v but no static message\nsource:\n%s",
						trial, concreteErrs[trial], src)
				}
			}
			t.Logf("%d/%d generated programs had concrete errors; soundness held on all",
				checkedErrs, trials)
		})
	}
}

// runConcrete executes f on a battery of inputs and returns the first
// string error (excluding kinds outside CSSV's obligations).
func runConcrete(t *testing.T, src string) *concrete.RuntimeError {
	t.Helper()
	file, err := cparse.ParseFile("gen.c", libc.Header+"\n"+src)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	prog, err := corec.Normalize(file)
	if err != nil {
		t.Fatalf("renormalize: %v", err)
	}
	inputs := []struct {
		s     string
		extra int
		n     int64
	}{
		{"", 0, 0}, {"", 4, 1}, {"a", 0, 1}, {"ab", 2, 2},
		{"hello", 0, 5}, {"hello", 3, 2}, {"xyzw", 1, 4},
		{" (a(b)c) ", 2, 3}, {"0123456789", 0, 10},
	}
	for _, in := range inputs {
		itp := concrete.New(prog)
		itp.StepLimit = 20000
		s := itp.MakeString(in.s, in.extra)
		_, rerr := itp.Call("f", s, concrete.MakeInt(in.n))
		if rerr == nil {
			continue
		}
		switch rerr.Kind {
		case concrete.ErrUninitRead, concrete.ErrOther:
			continue
		}
		return rerr
	}
	return nil
}

// genProgram builds a random procedure void f(char *s, int n) from unsafe
// and safe statement templates. The contract states only what the harness
// guarantees (s is a null-terminated string).
func genProgram(rng *rand.Rand) string {
	var body []string
	decls := []string{"int i;", "char c;", "char buf[8];", "char *p;"}
	body = append(body, "i = 0;", "c = 'x';", "p = s;", "buf[0] = '\\0';")

	stmts := []func() string{
		func() string { return fmt.Sprintf("c = s[%d];", rng.Intn(6)) },
		func() string { return "c = s[n];" },
		func() string { return "c = *p;" },
		func() string { return fmt.Sprintf("buf[%d] = 'a';", rng.Intn(10)) },
		func() string { return "buf[n] = 'b';" },
		func() string { return fmt.Sprintf("p = s + %d;", rng.Intn(5)) },
		func() string { return "p = s + n;" },
		func() string {
			return "while (*p != '\\0') { p = p + 1; }"
		},
		func() string {
			return fmt.Sprintf("while (*p != '%c') { p = p + 1; }", 'a'+rune(rng.Intn(3)))
		},
		func() string { return "i = strlen(s);" },
		func() string { return "s[i] = '\\0';" },
		func() string { return "s[i - 1] = '\\0';" },
		func() string { return "strcpy(buf, s);" },
		func() string { return "if (n > 0) { c = s[n - 1]; }" },
		func() string { return "if (n >= 0) { if (n < 4) { buf[n] = 'c'; } }" },
	}
	k := 2 + rng.Intn(4)
	for j := 0; j < k; j++ {
		body = append(body, stmts[rng.Intn(len(stmts))]())
	}

	var sb strings.Builder
	sb.WriteString("void f(char *s, int n)\n")
	sb.WriteString("    requires (is_nullt(s))\n{\n")
	for _, d := range decls {
		sb.WriteString("    " + d + "\n")
	}
	for _, st := range body {
		sb.WriteString("    " + st + "\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}
