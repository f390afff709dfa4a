package certify_test

import (
	"bytes"
	"encoding/json"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/linear"
)

// corpusCertBatches analyzes the 14 corpus files under opts with a fresh
// cache directory and returns every certificate batch the cache stored,
// decoded as a revalidation decodes it.
func corpusCertBatches(t *testing.T, opts core.Options) [][]*certify.Certificate {
	t.Helper()
	files, err := filepath.Glob("../../testdata/suite/*.c")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	files = append([]string{
		"../../testdata/airbus/airbus.c",
		"../../testdata/fixwrites/fixwrites.c",
		"../../testdata/running/skipline.c",
	}, files...)
	if len(files) != 14 {
		t.Fatalf("corpus has %d files, want 14", len(files))
	}
	opts.Workers = 1
	opts.CacheDir = t.TempDir()
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.AnalyzeSource(f, string(src), opts); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	paths, err := filepath.Glob(filepath.Join(opts.CacheDir, "*.cert"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var out [][]*certify.Certificate
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			t.Fatalf("%s: no header line", p)
		}
		var batch cache.CertBatch
		if err := json.Unmarshal(data[nl+1:], &batch); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		certs, err := cache.DecodeCertificates(&batch)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, certs)
	}
	return out
}

// carrierGroups splits a batch into its shared-carrier groups, in order of
// first appearance, leaving out unreachability certificates.
func carrierGroups(certs []*certify.Certificate) [][]*certify.Certificate {
	index := map[*linear.System]int{}
	var groups [][]*certify.Certificate
	for _, c := range certs {
		if c.Unreachable || len(c.Inv) == 0 {
			continue
		}
		g, ok := index[&c.Inv[0]]
		if !ok {
			g = len(groups)
			index[&c.Inv[0]] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], c)
	}
	return groups
}

// withInv returns copies of a group's certificates sharing one new
// invariant map, so VerifyAll still groups them.
func withInv(group []*certify.Certificate, inv []linear.System) []*certify.Certificate {
	out := make([]*certify.Certificate, len(group))
	for i, c := range group {
		cc := *c
		cc.Inv = inv
		out[i] = &cc
	}
	return out
}

// corruptions derives the seeded corruptions of one invariant map: a
// constraint dropped, a constant tightened by 1, two points swapped, and
// one constraint of the assert's invariant dropped at every point. The
// first three mostly break consecution; the last keeps the map inductive
// more often than not and so reaches the implication check. The original
// map is never modified.
func corruptions(rng *rand.Rand, inv []linear.System, assertIdx int) [][]linear.System {
	var nonEmpty []int
	for i, sys := range inv {
		if len(sys) > 0 {
			nonEmpty = append(nonEmpty, i)
		}
	}
	var out [][]linear.System
	if len(nonEmpty) > 0 {
		i := nonEmpty[rng.Intn(len(nonEmpty))]
		j := rng.Intn(len(inv[i]))
		drop := append([]linear.System(nil), inv...)
		drop[i] = append(append(linear.System{}, inv[i][:j]...), inv[i][j+1:]...)
		out = append(out, drop)

		i = nonEmpty[rng.Intn(len(nonEmpty))]
		j = rng.Intn(len(inv[i]))
		tight := append([]linear.System(nil), inv...)
		tight[i] = append(linear.System(nil), inv[i]...)
		tight[i][j].E = tight[i][j].E.Add(linear.ConstExpr(-1))
		out = append(out, tight)
	}
	if len(inv) > 1 {
		i := rng.Intn(len(inv))
		j := (i + 1 + rng.Intn(len(inv)-1)) % len(inv)
		swap := append([]linear.System(nil), inv...)
		swap[i], swap[j] = swap[j], swap[i]
		out = append(out, swap)
	}
	if at := inv[assertIdx]; len(at) > 0 {
		victim := at[rng.Intn(len(at))].String(nil)
		weak := make([]linear.System, len(inv))
		for i, sys := range inv {
			for _, c := range sys {
				if c.String(nil) != victim {
					weak[i] = append(weak[i], c)
				}
			}
		}
		out = append(out, weak)
	}
	return out
}

// wideCertificate builds
//
//	0: assume(a·x + 3y - 5 >= 0 && -b·x + 7y + 1 >= 0)
//	1: assume(true)
//	2: assert(y >= k)
//
// whose invariant carries the assumption forward and adds y >= k from
// point 2 on. The assumption implies y >= (5b-a)/(3b+7a), about 0.4 for
// the coefficients used here, so k = 0 certifies and k = 1 fails
// consecution. Eliminating x multiplies a by b, beyond int64 whenever both
// are near 2^62 or larger.
func wideCertificate(t *testing.T, a, b *big.Int, k int64) *certify.Certificate {
	t.Helper()
	p := ip.New("wide")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	c1 := linear.NewExpr(big.NewInt(-5), linear.Term{V: x, K: a}, linear.Term{V: y, K: big.NewInt(3)})
	c2 := linear.NewExpr(big.NewInt(1), linear.Term{V: x, K: new(big.Int).Neg(b)}, linear.Term{V: y, K: big.NewInt(7)})
	assumed := linear.System{linear.NewGe(c1), linear.NewGe(c2)}
	yk := linear.VarExpr(y)
	yk = yk.Add(linear.ConstExpr(-k))
	bound := linear.NewGe(yk)

	p.Emit(&ip.Assume{C: ip.DNF{assumed}})
	p.Emit(&ip.Assume{C: nil})
	p.Emit(&ip.Assert{C: ip.Single(bound), Msg: "y bounded"})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	withBound := append(assumed[:len(assumed):len(assumed)], bound)
	return &certify.Certificate{
		Check:     certify.Check{OrigIndex: 2, Msg: "y bounded", Tier: "test"},
		Prog:      p,
		AssertIdx: 2,
		Inv:       []linear.System{{}, assumed, withBound, withBound},
		VarNames:  []string{"x", "y"},
	}
}

// TestCompiledCheckerMatchesReference holds VerifyAll, which compiles each
// carrier's invariant map to int64 rows once, to the per-certificate
// reference path: the same Status and the same Detail for every corpus
// certificate under Cascade+Certify and under Certify, for four seeded
// corruptions of every corpus carrier, and for hand-built certificates
// whose coefficients force the big.Int engine in consecution and in
// implication.
func TestCompiledCheckerMatchesReference(t *testing.T) {
	same := func(t *testing.T, what string, certs []*certify.Certificate) []certify.CheckResult {
		t.Helper()
		got, want := certify.VerifyAll(certs), certify.VerifyReference(certs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: compiled checker disagrees with the reference:\ngot  %+v\nwant %+v", what, got, want)
		}
		return got
	}
	rng := rand.New(rand.NewSource(23))
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"cascade-certify", core.Options{Cascade: true, Certify: true}},
		{"certify", core.Options{Certify: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			certified, failed, implication := 0, 0, 0
			for _, batch := range corpusCertBatches(t, cfg.opts) {
				for _, r := range same(t, "corpus batch", batch) {
					if r.Status != certify.StatusCertified {
						t.Fatalf("corpus certificate for check %d failed: %s", r.Index, r.Detail)
					}
					certified++
				}
				for _, group := range carrierGroups(batch) {
					for _, inv := range corruptions(rng, group[0].Inv, group[0].AssertIdx) {
						for _, r := range same(t, "corrupted "+group[0].Prog.Name, withInv(group, inv)) {
							if r.Status == certify.StatusFailed {
								failed++
								if strings.Contains(r.Detail, "implication") {
									implication++
								}
							}
						}
					}
				}
			}
			t.Logf("%d corpus certificates; %d corrupted certificates rejected, %d of them by implication",
				certified, failed, implication)
			// A corruption that no check rejects exercises only the passing
			// side; most of them must fail, some at the implication.
			if certified == 0 || failed < certified || implication == 0 {
				t.Fatalf("degenerate corpus: %d certificates, %d corrupted ones rejected, %d by implication",
					certified, failed, implication)
			}
		})
	}

	t.Run("demotion", func(t *testing.T) {
		near := func(d int64) *big.Int { return new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 62), big.NewInt(d)) }
		beyond := func(d int64) *big.Int { return new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(d)) }
		for _, tc := range []struct {
			name string
			a, b *big.Int
		}{
			{"overflow-in-elimination", near(1), near(3)},
			{"beyond-int64", beyond(0), beyond(1)},
		} {
			for k, want := range []certify.Status{certify.StatusCertified, certify.StatusFailed} {
				cert := wideCertificate(t, tc.a, tc.b, int64(k))
				edges, impl := certify.CompiledFallbacks(cert)
				if edges == 0 || impl == 0 {
					t.Fatalf("%s k=%d: %d edges and %d implications left the int64 engine, want both > 0",
						tc.name, k, edges, impl)
				}
				got := same(t, tc.name, []*certify.Certificate{cert})
				if got[0].Status != want {
					t.Fatalf("%s k=%d: status %s (%s), want %s", tc.name, k, got[0].Status, got[0].Detail, want)
				}
			}
		}
	})
}
