package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/clex"
	"repro/internal/ip"
	"repro/internal/linear"
)

// sampleProgram exercises every statement kind and every DNF shape: true
// (nil), false (empty non-nil), a trivially-true disjunct (nil conjunct),
// and constraints with coefficients beyond int64.
func sampleProgram(t *testing.T) *ip.Program {
	t.Helper()
	p := ip.New("sample")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	p.PreludeEnd = 2

	huge := new(big.Int).Lsh(big.NewInt(1), 80) // 2^80: not an int64
	e := linear.NewExpr(big.NewInt(-7), linear.Term{V: x, K: big.NewInt(1)}, linear.Term{V: y, K: huge})

	ge := linear.NewGe(linear.VarExpr(y))
	eq := linear.NewEq(e)

	p.Emit(&ip.Label{Name: "top"})
	p.Emit(&ip.Assign{V: x, E: e})
	p.Emit(&ip.Havoc{V: y})
	p.Emit(&ip.Assume{C: nil})      // true
	p.Emit(&ip.Assume{C: ip.DNF{}}) // false
	p.Emit(&ip.Assume{C: ip.DNF{nil}})
	p.Emit(&ip.Assert{
		C:   ip.DNF{{ge, eq}, {ge}},
		Msg: "sample check", Pos: clex.Pos{File: "f.c", Line: 3, Col: 9},
	})
	p.Emit(&ip.Assert{C: nil, Msg: "unverifiable", Unverifiable: true})
	p.Emit(&ip.IfGoto{C: ip.DNF{{ge}}, FalseC: ip.DNF{{eq}}, Target: "top"})
	p.Emit(&ip.IfGoto{C: nil, Target: "top"}) // nondeterministic branch
	p.Emit(&ip.Goto{Target: "top"})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProgramRoundTrip(t *testing.T) {
	p := sampleProgram(t)
	enc := EncodeProgram(p)
	dec, err := DecodeProgram(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.String(), p.String(); got != want {
		t.Errorf("rendered program changed across round trip:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if dec.PreludeEnd != p.PreludeEnd {
		t.Errorf("PreludeEnd = %d, want %d", dec.PreludeEnd, p.PreludeEnd)
	}
	// A second encode must be structurally identical: the DTO is the
	// canonical form, so encode∘decode must be the identity on it.
	if !reflect.DeepEqual(EncodeProgram(dec), enc) {
		t.Error("encode(decode(encode(p))) differs from encode(p)")
	}
	// The DNF shapes must survive exactly: true vs false vs [nil].
	if c := dec.Stmts[3].(*ip.Assume).C; c != nil {
		t.Errorf("true DNF decoded as %#v, want nil", c)
	}
	if c := dec.Stmts[4].(*ip.Assume).C; c == nil || len(c) != 0 {
		t.Errorf("false DNF decoded as %#v, want empty non-nil", c)
	}
	if c := dec.Stmts[5].(*ip.Assume).C; len(c) != 1 || c[0] != nil {
		t.Errorf("[nil] DNF decoded as %#v", c)
	}
}

func TestSystemRoundTrip(t *testing.T) {
	if s, err := DecodeSystem(EncodeSystem(nil)); err != nil || s != nil {
		t.Errorf("nil system: got %#v, %v", s, err)
	}
	if s, err := DecodeSystem(EncodeSystem(linear.System{})); err != nil || s == nil || len(s) != 0 {
		t.Errorf("empty system: got %#v, %v", s, err)
	}
	neg := linear.ConstExpr(-1)
	sys := linear.System{linear.NewGe(neg)} // the canonical unsat marker
	dec, err := DecodeSystem(EncodeSystem(sys))
	if err != nil {
		t.Fatal(err)
	}
	if dec[0].E.Eval(nil).Int64() != -1 || dec[0].Rel != linear.Ge {
		t.Errorf("unsat marker system changed: %#v", dec)
	}
}

func TestCounterExampleRoundTrip(t *testing.T) {
	ce := map[string]*big.Rat{
		"x": big.NewRat(7, 3),
		"y": new(big.Rat).SetInt64(-4),
	}
	dec, err := DecodeCounterExample(EncodeCounterExample(ce))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, ce) {
		t.Errorf("counter-example changed: %v vs %v", dec, ce)
	}
	if m, err := DecodeCounterExample(nil); err != nil || m != nil {
		t.Errorf("nil counter-example: %v, %v", m, err)
	}
}

// sampleCerts builds two certificates sharing one carrier (as a tier
// export does) plus one unreachability certificate on a separate program.
func sampleCerts(t *testing.T) []*certify.Certificate {
	t.Helper()
	p := sampleProgram(t)
	inv := make([]linear.System, p.Size()+1)
	inv[0] = nil
	inv[1] = linear.System{}
	inv[2] = linear.System{linear.NewGe(linear.ConstExpr(-1))}
	for i := 3; i < len(inv); i++ {
		inv[i] = linear.System{linear.NewGe(linear.VarExpr(0))}
	}
	orig := make([]int, p.Size())
	for i := range orig {
		orig[i] = i * 2
	}
	names := p.Space.Names()
	mk := func(idx int) *certify.Certificate {
		return &certify.Certificate{
			Check:     certify.Check{OrigIndex: idx * 2, Msg: "c", Tier: "zone"},
			Prog:      p,
			AssertIdx: idx,
			Inv:       inv,
			OrigStmt:  orig,
			VarNames:  names,
		}
	}
	unreach := &certify.Certificate{
		Check:       certify.Check{OrigIndex: 14, Msg: "u", Tier: "unreachable"},
		Prog:        sampleProgram(t),
		AssertIdx:   6,
		Unreachable: true,
	}
	return []*certify.Certificate{mk(6), mk(7), unreach}
}

func TestCertificateSharingSurvivesDecode(t *testing.T) {
	certs := sampleCerts(t)
	dec, err := DecodeCertificates(EncodeCertificates(certs))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 3 {
		t.Fatalf("decoded %d certificates, want 3", len(dec))
	}
	// The two tier certificates must share carrier program and invariant
	// slice by pointer, or VerifyAll loses its shared-obligation grouping.
	if dec[0].Prog != dec[1].Prog {
		t.Error("carrier program not shared after decode")
	}
	if &dec[0].Inv[0] != &dec[1].Inv[0] || len(dec[0].Inv) != len(dec[1].Inv) {
		t.Error("invariant map not shared after decode")
	}
	if dec[2].Prog == dec[0].Prog || !dec[2].Unreachable || dec[2].Inv != nil {
		t.Error("unreachability certificate mangled")
	}
	if dec[0].Inv[0] != nil {
		t.Error("nil invariant system decoded non-nil")
	}
	if dec[0].Inv[1] == nil || len(dec[0].Inv[1]) != 0 {
		t.Error("empty invariant system decoded as nil")
	}
}

func sampleEntry(t *testing.T) *Entry {
	p := sampleProgram(t)
	return &Entry{
		Report: ProcReport{
			Name: "sample", LOC: 10, SLOC: 12, IPVars: 2, IPSize: p.Size(),
			Iterations: 42,
			Violations: []Violation{{
				Index: 6, Msg: "sample check", Pos: clex.Pos{File: "f.c", Line: 3, Col: 9},
				CounterExample:         map[string]string{"x": "7/3"},
				CounterExampleIntegral: false,
				StateSystem:            EncodeSystem(linear.System{linear.NewGe(linear.VarExpr(0))}),
			}},
			Warnings: []Warning{{Pos: clex.Pos{Line: 1, Col: 1}, Msg: "note"}},
			IP:       EncodeProgram(p),
		},
	}
}

func testKey(proc string) Key {
	h := func(b byte) string { return strings.Repeat(string([]byte{b}), 64) }
	return Key{Proc: proc, Body: h('a'), Conf: h('b'), Env: h('c')}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("sample")
	certs := sampleCerts(t)
	if err := s.Put(k, sampleEntry(t), certs); err != nil {
		t.Fatal(err)
	}
	e, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if e == nil {
		t.Fatal("entry not found after Put")
	}
	if e.NumCerts != 3 || e.CertDigest == "" {
		t.Fatalf("entry cert binding: NumCerts=%d CertDigest=%q", e.NumCerts, e.CertDigest)
	}
	if !reflect.DeepEqual(e.Report, sampleEntry(t).Report) {
		t.Error("report changed across store round trip")
	}
	got, err := s.Certificates(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Prog.String() != certs[0].Prog.String() {
		t.Errorf("certificates changed across store round trip")
	}

	// A different key misses cleanly.
	other := testKey("sample")
	other.Env = strings.Repeat("d", 64)
	if e, err := s.Get(other); e != nil || err != nil {
		t.Errorf("Get(miss) = %v, %v; want nil, nil", e, err)
	}
}

// TestStoreRefreshCopiesCertificateBytes stores a certificate payload in a
// layout Put never writes (indented JSON), then refreshes the entry under
// a new key: the new certificate file must carry the source bytes, not a
// re-encoding. A source file that no longer matches its pinned digest must
// refuse the refresh and leave nothing under the new key.
func TestStoreRefreshCopiesCertificateBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	compact, err := json.Marshal(EncodeCertificates(sampleCerts(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&indented, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	k := testKey("sample")
	src := sampleEntry(t)
	src.Proc, src.BodyHash, src.ConfHash, src.EnvHash = k.Proc, k.Body, k.Conf, k.Env
	src.NumCerts, src.CertDigest = 3, digest(indented.Bytes())
	if err := s.writeFile(k.base()+".cert", indented.Bytes()); err != nil {
		t.Fatal(err)
	}

	k2 := testKey("sample")
	k2.Env = strings.Repeat("d", 64)
	if err := s.Refresh(k2, sampleEntry(t), src); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, k.base()+".cert"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, k2.base()+".cert"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("refreshed certificate file is not a byte copy of its source")
	}
	e2, err := s.Get(k2)
	if err != nil || e2 == nil {
		t.Fatalf("refreshed entry does not read back: %v", err)
	}
	if certs, err := s.Certificates(e2); err != nil || len(certs) != 3 {
		t.Fatalf("refreshed certificates: %d, %v", len(certs), err)
	}

	// The source changes after it was verified: the refresh must refuse.
	if err := s.writeFile(k.base()+".cert", compact); err != nil {
		t.Fatal(err)
	}
	k3 := testKey("sample")
	k3.Env = strings.Repeat("e", 64)
	if err := s.Refresh(k3, sampleEntry(t), src); err == nil {
		t.Fatal("refresh copied a certificate file that no longer matches its pinned digest")
	}
	if e3, err := s.Get(k3); e3 != nil || err != nil {
		t.Fatalf("a refused refresh left an entry behind: %v, %v", e3, err)
	}
}

func TestStoreCandidates(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k1 := testKey("sample")
	k2 := testKey("sample")
	k2.Env = strings.Repeat("d", 64)
	k3 := testKey("sample")
	k3.Env = strings.Repeat("e", 64)
	for _, k := range []Key{k1, k2, k3} {
		if err := s.Put(k, sampleEntry(t), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Looking for k3's twin brothers: same proc/body/conf, env != k3.Env.
	got, errs := s.Candidates("sample", k3.Body, k3.Conf, k3.Env)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(got) != 2 {
		t.Fatalf("candidates = %d, want 2", len(got))
	}
	if got[0].EnvHash != k1.Env || got[1].EnvHash != k2.Env {
		t.Errorf("candidate order not deterministic: %s, %s", got[0].EnvHash, got[1].EnvHash)
	}
}

func TestStoreCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("sample")
	if err := s.Put(k, sampleEntry(t), sampleCerts(t)); err != nil {
		t.Fatal(err)
	}
	rep := filepath.Join(dir, k.base()+".rep")
	cert := filepath.Join(dir, k.base()+".cert")
	pristineRep, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	pristineCert, err := os.ReadFile(cert)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		os.WriteFile(rep, pristineRep, 0o644)
		os.WriteFile(cert, pristineCert, 0o644)
	}

	corrupt := func(name string, path string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			restore()
			t.Cleanup(restore)
			orig := pristine(path, pristineRep, pristineCert)
			mutated := mutate(append([]byte(nil), orig...))
			if bytes.Equal(mutated, orig) {
				t.Fatal("the mutation left the file unchanged; the case would pass vacuously")
			}
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if path == rep {
				if _, err := s.Get(k); err == nil {
					t.Fatal("corrupted report accepted")
				}
				return
			}
			e, err := s.Get(k)
			if err != nil || e == nil {
				t.Fatalf("report half should still read: %v", err)
			}
			if _, err := s.Certificates(e); err == nil {
				t.Fatal("corrupted certificate file accepted")
			}
		})
	}

	corrupt("report-bit-flip", rep, func(b []byte) []byte { b[len(b)/2] ^= 0x20; return b })
	corrupt("report-truncated", rep, func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("report-bad-header", rep, func(b []byte) []byte { return append([]byte("not-a-cache-file\n"), b...) })
	corrupt("report-version-skew", rep, func(b []byte) []byte {
		cur := fmt.Sprintf("%s %d ", magic, FormatVersion)
		return []byte(strings.Replace(string(b), cur, magic+" 999 ", 1))
	})
	corrupt("cert-bit-flip", cert, func(b []byte) []byte { b[len(b)-3] ^= 0x01; return b })
	corrupt("cert-truncated", cert, func(b []byte) []byte { return b[:len(b)-10] })

	t.Run("cert-missing", func(t *testing.T) {
		restore()
		t.Cleanup(restore)
		if err := os.Remove(cert); err != nil {
			t.Fatal(err)
		}
		e, err := s.Get(k)
		if err != nil || e == nil {
			t.Fatalf("report half should still read: %v", err)
		}
		if _, err := s.Certificates(e); err == nil {
			t.Fatal("missing certificate file accepted")
		}
	})

	// Swapping in another entry's certificate file (valid header, wrong
	// content) must be caught by the digest binding.
	t.Run("cert-swapped", func(t *testing.T) {
		restore()
		t.Cleanup(restore)
		k2 := testKey("sample")
		k2.Env = strings.Repeat("d", 64)
		e2 := sampleEntry(t)
		e2.Report.Violations = nil // a different result
		if err := s.Put(k2, e2, sampleCerts(t)[:1]); err != nil {
			t.Fatal(err)
		}
		swapped, err := os.ReadFile(filepath.Join(dir, k2.base()+".cert"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cert, swapped, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := s.Get(k)
		if err != nil || e == nil {
			t.Fatalf("report half should still read: %v", err)
		}
		if _, err := s.Certificates(e); err == nil {
			t.Fatal("mix-and-matched certificate file accepted")
		}
	})
}

func pristine(path string, rep, cert []byte) []byte {
	if strings.HasSuffix(path, ".rep") {
		return rep
	}
	return cert
}
