package cssv

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestRunningExampleAPI drives the public API end to end on the paper's
// running example (Figs. 3/4): SkipLine verifies cleanly; main yields
// exactly the off-by-one message with a Fig. 8-style counter-example.
func TestRunningExampleAPI(t *testing.T) {
	src, err := os.ReadFile("testdata/running/skipline.c")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze("skipline.c", string(src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Procedures) != 2 {
		t.Fatalf("procedures = %d", len(rep.Procedures))
	}
	var sl, mn *Procedure
	for i := range rep.Procedures {
		switch rep.Procedures[i].Name {
		case "SkipLine":
			sl = &rep.Procedures[i]
		case "main":
			mn = &rep.Procedures[i]
		}
	}
	if sl == nil || mn == nil {
		t.Fatal("missing procedures")
	}
	if len(sl.Messages) != 0 {
		t.Errorf("SkipLine: %d false alarms, want 0", len(sl.Messages))
	}
	if len(mn.Messages) != 1 {
		t.Fatalf("main: %d messages, want 1", len(mn.Messages))
	}
	m := mn.Messages[0]
	if !strings.Contains(m.Text, "precondition of SkipLine") {
		t.Errorf("message: %s", m.Text)
	}
	if len(m.CounterExample) == 0 {
		t.Error("no counter-example (Fig. 8)")
	}
	if sl.LOC == 0 || sl.SLOC < sl.LOC || sl.IPVars == 0 || sl.IPSize == 0 {
		t.Errorf("statistics not populated: %+v", sl)
	}
	if !strings.Contains(sl.IntegerProgram(), "integer program for SkipLine") {
		t.Error("IP text missing")
	}
}

// TestFig8CounterExample checks the counter-example contents: the violation
// occurs when the pointer sits at the last byte of the 1024-byte buffer
// (alloc == 1, not > NbLine == 1).
func TestFig8CounterExample(t *testing.T) {
	src, err := os.ReadFile("testdata/running/skipline.c")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze("skipline.c", string(src), Config{Procedures: []string{"main"}})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Procedures[0].Messages[0]
	if m.CounterExample["lv(buf).aSize"] != "1024" {
		t.Errorf("counter-example: %v", m.CounterExample)
	}
	off, ok := m.CounterExample["lv(s).offset"]
	if !ok {
		t.Fatalf("no offset in counter-example: %v", m.CounterExample)
	}
	// alloc(s) = 1024 - offset must be <= 1 to violate alloc > 1.
	if off != "1023" && off != "1024" {
		t.Errorf("offset = %s, want 1023 or 1024", off)
	}
}

// TestConfigValidation: every invalid Config field is rejected with an
// unprefixed error; the command-line front ends add their own "cssv: "
// prefix, so a prefix here would print twice.
func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"domain", Config{Domain: "octagon"}},
		{"pointer", Config{Pointer: "magic"}},
		{"contracts", Config{Contracts: "psychic"}},
		{"target", Config{Target: "pdp11"}},
		{"workers", Config{Workers: -1}},
		{"proc-timeout", Config{ProcTimeout: -time.Second}},
		{"step-budget", Config{StepBudget: -1}},
	} {
		_, err := Analyze("x.c", "void f() {}", tc.cfg)
		if err == nil {
			t.Errorf("bad %s accepted", tc.name)
			continue
		}
		if strings.HasPrefix(err.Error(), "cssv: ") {
			t.Errorf("bad %s: error %q carries the front ends' prefix", tc.name, err)
		}
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	if _, err := Analyze("bad.c", "void f( {", Config{}); err == nil {
		t.Error("parse error swallowed")
	}
}

func TestDeriveContractsAPI(t *testing.T) {
	src, err := os.ReadFile("testdata/running/skipline.c")
	if err != nil {
		t.Fatal(err)
	}
	// Strip contracts so derivation works from scratch: use the body-only
	// variant.
	plain := `
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
`
	_ = src
	req, ens, err := DeriveContracts("skipline.c", plain, "SkipLine")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ens, "is_nullt(*PtrEndText)") {
		t.Errorf("derived ensures misses the terminator fact: %s", ens)
	}
	if !strings.Contains(ens, "pre(") {
		t.Errorf("derived ensures misses the entry-state relation: %s", ens)
	}
	if req == "" {
		t.Error("derived requires empty; AWPre should find the allocation demand")
	}
}

func TestVacuousAndAutoModes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	src, err := os.ReadFile("testdata/running/skipline.c")
	if err != nil {
		t.Fatal(err)
	}
	manual, err := Analyze("s.c", string(src), Config{Procedures: []string{"SkipLine"}})
	if err != nil {
		t.Fatal(err)
	}
	vac, err := Analyze("s.c", string(src), Config{Procedures: []string{"SkipLine"}, Contracts: "vacuous"})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Analyze("s.c", string(src), Config{Procedures: []string{"SkipLine"}, Contracts: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	m, v, a := len(manual.Messages()), len(vac.Messages()), len(auto.Messages())
	if !(m <= a && a <= v) {
		t.Errorf("message counts manual=%d auto=%d vacuous=%d; want manual <= auto <= vacuous", m, a, v)
	}
	if v == 0 {
		t.Error("vacuous contracts should produce messages on SkipLine")
	}
	if auto.Procedures[0].DerivedEnsures == "" {
		t.Error("auto mode did not surface the derived contract")
	}
}
