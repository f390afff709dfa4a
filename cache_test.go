// Tests for the on-disk analysis cache at the public API level: a warm
// run must reproduce the cold run bit for bit (and both must match an
// uncached run), the certificate-revalidation fast path must fire when
// only another procedure's contract changes, and damaged or tampered
// entries must be detected and fall back to full analysis — never
// silently report "safe".
package cssv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
)

// TestCacheWarmEqualsCold runs every golden twice against the same cache
// directory and once without a cache, for both sequential and parallel
// workers. All three reports must deep-equal after timings are stripped,
// the warm run must hit on every procedure, and — the headline soundness
// property — the warm run must execute zero fixpoint iterations.
func TestCacheWarmEqualsCold(t *testing.T) {
	paths := []string{
		"testdata/airbus/airbus.c",
		"testdata/fixwrites/fixwrites.c",
		"testdata/running/skipline.c",
	}
	for _, path := range paths {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", filepath.Base(path), workers), func(t *testing.T) {
				dir := t.TempDir()
				cfg := Config{Workers: workers, Cascade: true, CacheDir: dir}
				cold, err := AnalyzeFile(path, cfg)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := AnalyzeFile(path, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := AnalyzeFile(path, Config{Workers: workers, Cascade: true})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := warm.Stats.CacheHits, len(warm.Procedures); got != want {
					t.Errorf("warm run: CacheHits = %d, want %d (one per procedure)", got, want)
				}
				if warm.Stats.CacheMisses != 0 || warm.Stats.CacheRevalidated != 0 {
					t.Errorf("warm run: misses = %d, revalidated = %d, want 0/0",
						warm.Stats.CacheMisses, warm.Stats.CacheRevalidated)
				}
				if warm.Stats.FixpointIterations != 0 {
					t.Errorf("warm run executed %d fixpoint iterations, want 0",
						warm.Stats.FixpointIterations)
				}
				if cold.Stats.CacheStores != len(cold.Procedures) {
					t.Errorf("cold run: CacheStores = %d, want %d",
						cold.Stats.CacheStores, len(cold.Procedures))
				}
				for _, p := range warm.Procedures {
					if p.CacheStatus != "hit" {
						t.Errorf("warm run: procedure %s has CacheStatus %q, want \"hit\"",
							p.Name, p.CacheStatus)
					}
				}
				stripTimings(cold)
				stripTimings(warm)
				stripTimings(ref)
				if !reflect.DeepEqual(cold, warm) {
					t.Errorf("warm report differs from cold report")
				}
				if !reflect.DeepEqual(ref, cold) {
					t.Errorf("cached cold report differs from uncached report")
				}
			})
		}
	}
}

// revalSrcV1/V2 differ only in the numeric bound inside pad_tail's
// requires clause. zero_head sits above the edit, does not call pad_tail,
// and its body, positions, and generated integer program are identical in
// both versions — so a second run over V2 against a cache populated from
// V1 must revalidate zero_head from its stored certificates (no fixpoint)
// while pad_tail, whose inlined contract changed, falls back to full
// analysis.
const revalSrcV1 = `void zero_head(char *s)
    requires (is_within_bounds(s) && alloc(s) > 1)
    modifies (*s), (is_nullt(s)), (strlen(s))
    ensures (is_nullt(s) && strlen(s) == 0)
{
    *s = '\0';
}

void pad_tail(char *s)
    requires (is_nullt(s) && alloc(s) > strlen(s) + 2)
    modifies (is_nullt(s)), (strlen(s))
    ensures (is_nullt(s))
{
    int n;
    n = strlen(s);
    s[n] = 'x';
    s[n + 1] = '\0';
}
`

var revalSrcV2 = strings.Replace(revalSrcV1, "strlen(s) + 2", "strlen(s) + 3", 1)

func TestCacheRevalidationOnContractChange(t *testing.T) {
	if revalSrcV1 == revalSrcV2 {
		t.Fatal("fixture bug: V1 and V2 are identical")
	}
	dir := t.TempDir()
	cfg := Config{Workers: 1, Cascade: true, CacheDir: dir}
	cold, err := Analyze("reval.c", revalSrcV1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.FixpointIterations == 0 {
		t.Fatal("cold run reports zero fixpoint iterations; the cheapness comparison below is vacuous")
	}
	v2, err := Analyze("reval.c", revalSrcV2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze("reval.c", revalSrcV2, Config{Workers: 1, Cascade: true})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Stats.CacheRevalidated < 1 {
		t.Errorf("CacheRevalidated = %d, want >= 1 (zero_head should revalidate)",
			v2.Stats.CacheRevalidated)
	}
	if v2.Stats.CacheMisses < 1 {
		t.Errorf("CacheMisses = %d, want >= 1 (pad_tail's contract changed)",
			v2.Stats.CacheMisses)
	}
	if v2.Stats.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0 (the source text changed)", v2.Stats.CacheHits)
	}
	// The revalidation fast path skips the fixpoint for zero_head, so the
	// incremental run must be strictly cheaper than the cold run by the
	// engine's own iteration counter.
	if v2.Stats.FixpointIterations >= cold.Stats.FixpointIterations {
		t.Errorf("incremental run cost %d fixpoint iterations, cold run %d; revalidation saved nothing",
			v2.Stats.FixpointIterations, cold.Stats.FixpointIterations)
	}
	for _, p := range v2.Procedures {
		switch p.Name {
		case "zero_head":
			if p.CacheStatus != "revalidated" {
				t.Errorf("zero_head CacheStatus = %q, want \"revalidated\"", p.CacheStatus)
			}
		case "pad_tail":
			if p.CacheStatus != "stored" {
				t.Errorf("pad_tail CacheStatus = %q, want \"stored\" (full re-analysis, result re-cached)",
					p.CacheStatus)
			}
		}
	}
	stripTimings(v2)
	stripTimings(ref)
	if !reflect.DeepEqual(v2, ref) {
		t.Errorf("incremental report differs from a fresh uncached run of the modified source")
	}
}

// TestCacheRefreshCopiesCertificateBytes checks the refresh after a
// revalidation: the entry stored under the new key carries the
// certificate file it was revalidated from, byte for byte.
func TestCacheRefreshCopiesCertificateBytes(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Cascade: true, CacheDir: dir}
	if _, err := Analyze("reval.c", revalSrcV1, cfg); err != nil {
		t.Fatal(err)
	}
	before, err := filepath.Glob(filepath.Join(dir, "zero_head-*.cert"))
	if err != nil || len(before) != 1 {
		t.Fatalf("cold run left %d zero_head certificate files (err=%v), want 1", len(before), err)
	}
	v2, err := Analyze("reval.c", revalSrcV2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Stats.CacheRevalidated < 1 {
		t.Fatalf("CacheRevalidated = %d, want >= 1", v2.Stats.CacheRevalidated)
	}
	after, err := filepath.Glob(filepath.Join(dir, "zero_head-*.cert"))
	if err != nil || len(after) != 2 {
		t.Fatalf("after revalidation %d zero_head certificate files (err=%v), want 2", len(after), err)
	}
	src, err := os.ReadFile(before[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range after {
		got, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Errorf("%s differs from the certificate file it was revalidated from", filepath.Base(f))
		}
	}
}

// TestCacheFormat1EntryRejected stamps every entry of a warm cache with
// the format-1 header (digests kept valid, as a format-1 writer would
// leave them). The next run must reject each entry by its header, count
// it, analyze afresh, and report exactly what an uncached run reports.
func TestCacheFormat1EntryRejected(t *testing.T) {
	const path = "testdata/airbus/airbus.c"
	ref, err := AnalyzeFile(path, Config{Workers: 1, Cascade: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{Workers: 1, Cascade: true, CacheDir: dir}
	if _, err := AnalyzeFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	reps := repFiles(t, dir)
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	cur := fmt.Sprintf("cssv-cache %d ", cache.FormatVersion)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(cur)) {
			t.Fatalf("%s does not start with %q", f, cur)
		}
		old := append([]byte("cssv-cache 1 "), data[len(cur):]...)
		if err := os.WriteFile(f, old, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := AnalyzeFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheBadEntries < len(reps) {
		t.Errorf("CacheBadEntries = %d, want >= %d (one per format-1 entry)", warm.Stats.CacheBadEntries, len(reps))
	}
	if warm.Stats.CacheHits != 0 || warm.Stats.CacheRevalidated != 0 {
		t.Errorf("hits=%d revalidated=%d, want 0: no format-1 entry may be read",
			warm.Stats.CacheHits, warm.Stats.CacheRevalidated)
	}
	if warm.Stats.FixpointIterations == 0 {
		t.Error("no fixpoint ran: the procedures were not analyzed afresh")
	}
	stripTimings(ref)
	stripTimings(warm)
	if !reflect.DeepEqual(ref, warm) {
		t.Errorf("report after rejecting format-1 entries differs from the uncached reference")
	}
}

// TestCacheColdStoresIdentical stores the same file cold into two cache
// directories. The report files must be byte-identical: an entry holds
// what the analysis found, not how long its tiers took, so a hit cannot
// replay another run's timings.
func TestCacheColdStoresIdentical(t *testing.T) {
	const path = "testdata/airbus/airbus.c"
	var dirs [2]string
	for i := range dirs {
		dirs[i] = t.TempDir()
		if _, err := AnalyzeFile(path, Config{Workers: 1, Cascade: true, Certify: true, CacheDir: dirs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	reps := repFiles(t, dirs[0])
	if others := repFiles(t, dirs[1]); len(others) != len(reps) {
		t.Fatalf("the stores wrote %d and %d report files", len(reps), len(others))
	}
	for _, f := range reps {
		a, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], filepath.Base(f)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two cold stores", filepath.Base(f))
		}
	}
}

// repFiles returns every report file in a cache directory.
func repFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.rep"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no cache entries in %s (err=%v)", dir, err)
	}
	return matches
}

// TestCacheCorruptedEntryFallsBack damages stored entries in the two ways
// a real filesystem does — truncation and bit rot — and checks the next
// run detects each, counts it, and re-analyzes from scratch.
func TestCacheCorruptedEntryFallsBack(t *testing.T) {
	const path = "testdata/airbus/airbus.c"
	ref, err := AnalyzeFile(path, Config{Workers: 1, Cascade: true})
	if err != nil {
		t.Fatal(err)
	}
	stripTimings(ref)
	damage := []struct {
		name string
		hurt func(data []byte) []byte
	}{
		{"truncated", func(data []byte) []byte { return data[:len(data)/2] }},
		{"bitflip", func(data []byte) []byte {
			data[len(data)-2] ^= 0x40
			return data
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := AnalyzeFile(path, Config{Workers: 1, Cascade: true, CacheDir: dir}); err != nil {
				t.Fatal(err)
			}
			victim := repFiles(t, dir)[0]
			data, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(victim, d.hurt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			warm, err := AnalyzeFile(path, Config{Workers: 1, Cascade: true, CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Stats.CacheBadEntries < 1 {
				t.Errorf("CacheBadEntries = %d, want >= 1", warm.Stats.CacheBadEntries)
			}
			if warm.Stats.CacheHits != len(warm.Procedures)-1 {
				t.Errorf("CacheHits = %d, want %d (all but the damaged entry)",
					warm.Stats.CacheHits, len(warm.Procedures)-1)
			}
			stripTimings(warm)
			if !reflect.DeepEqual(ref, warm) {
				t.Errorf("report after cache corruption differs from the uncached reference")
			}
		})
	}
}

// resign rewrites a cache file around a modified payload with a freshly
// computed digest, simulating an attacker (or a buggy tool) that can write
// well-formed entries but cannot forge analysis results.
func resign(t *testing.T, path string, mutate func(e *cache.Entry)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := strings.IndexByte(string(data), '\n')
	if nl < 0 {
		t.Fatalf("%s: no header line", path)
	}
	var e cache.Entry
	if err := json.Unmarshal(data[nl+1:], &e); err != nil {
		t.Fatal(err)
	}
	mutate(&e)
	payload, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("cssv-cache %d %s\n", cache.FormatVersion, hex.EncodeToString(sum[:]))
	if err := os.WriteFile(path, append([]byte(header), payload...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheTamperedEntryRejected rewrites a stored entry with one
// violation deleted — a correctly signed entry that claims a check is
// safe without a certificate for it. Under -cache-verify the assert
// accounting must reject the entry and fall back to full analysis; the
// dropped violation must reappear in the report.
func TestCacheTamperedEntryRejected(t *testing.T) {
	const path = "testdata/airbus/airbus.c"
	dir := t.TempDir()
	cfg := Config{Workers: 1, Cascade: true, CacheDir: dir, CacheVerify: true}
	ref, err := AnalyzeFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tampered := 0
	for _, rep := range repFiles(t, dir) {
		var hasViolations bool
		resign(t, rep, func(e *cache.Entry) {
			if len(e.Report.Violations) > 0 {
				e.Report.Violations = e.Report.Violations[1:]
				hasViolations = true
			}
		})
		if hasViolations {
			tampered++
		}
	}
	if tampered == 0 {
		t.Fatal("fixture bug: no cached entry had a violation to drop")
	}
	warm, err := AnalyzeFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheCertRejected < tampered {
		t.Errorf("CacheCertRejected = %d, want >= %d (one per tampered entry)",
			warm.Stats.CacheCertRejected, tampered)
	}
	stripTimings(ref)
	stripTimings(warm)
	if !reflect.DeepEqual(ref, warm) {
		t.Errorf("report after tampering differs from the trusted reference — a dropped violation survived")
	}
}

// TestCacheTamperedCertificateRejected rewrites the certificate half of
// each entry with one payload byte flipped and a freshly signed header —
// the file-level digest passes, but the digest binding pinned in the
// report half must reject the pair, and the run must fall back to full
// analysis.
func TestCacheTamperedCertificateRejected(t *testing.T) {
	const path = "testdata/airbus/airbus.c"
	dir := t.TempDir()
	cfg := Config{Workers: 1, Cascade: true, CacheDir: dir, CacheVerify: true}
	ref, err := AnalyzeFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	certs, err := filepath.Glob(filepath.Join(dir, "*.cert"))
	if err != nil || len(certs) == 0 {
		t.Fatalf("no certificate files in %s (err=%v)", dir, err)
	}
	for _, cf := range certs {
		data, err := os.ReadFile(cf)
		if err != nil {
			t.Fatal(err)
		}
		nl := strings.IndexByte(string(data), '\n')
		if nl < 0 {
			t.Fatalf("%s: no header line", cf)
		}
		payload := append([]byte(nil), data[nl+1:]...)
		payload[len(payload)/2] ^= 0x01
		sum := sha256.Sum256(payload)
		header := fmt.Sprintf("cssv-cache %d %s\n", cache.FormatVersion, hex.EncodeToString(sum[:]))
		if err := os.WriteFile(cf, append([]byte(header), payload...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := AnalyzeFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheBadEntries+warm.Stats.CacheCertRejected < len(certs) {
		t.Errorf("bad=%d rejected=%d, want their sum >= %d (one per tampered certificate file)",
			warm.Stats.CacheBadEntries, warm.Stats.CacheCertRejected, len(certs))
	}
	if warm.Stats.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0: no tampered entry may be trusted", warm.Stats.CacheHits)
	}
	stripTimings(ref)
	stripTimings(warm)
	if !reflect.DeepEqual(ref, warm) {
		t.Errorf("report after certificate tampering differs from the trusted reference")
	}
}

// TestCacheMalformedCertificateRejected re-signs one stored certificate
// file, and the digest its report pins, with the term 99999:1 added to an
// invariant constraint: a well-signed certificate naming a variable far
// beyond its carrier's dimension. Read as an exact hit under -cache-verify
// and as a revalidation candidate after an edit, the entry must be
// rejected and counted, no procedure may degrade, and the report must be
// byte-identical to an uncached run's.
func TestCacheMalformedCertificateRejected(t *testing.T) {
	const path = "testdata/airbus/airbus.c"
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := string(src) + "\nvoid cssv_appended(void) { int x; x = 0; }\n"
	warm := t.TempDir()
	if _, err := AnalyzeFile(path, Config{Workers: 1, Cascade: true, CacheDir: warm}); err != nil {
		t.Fatal(err)
	}
	malformCertificate(t, warm)
	for _, tc := range []struct {
		name, src string
		verify    bool
	}{
		{"exact-hit", string(src), true},
		{"revalidation", edited, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, warm, dir)
			rep, err := Analyze(path, tc.src, Config{Workers: 1, Cascade: true, CacheDir: dir, CacheVerify: tc.verify})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Analyze(path, tc.src, Config{Workers: 1, Cascade: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.CacheCertRejected != 1 || rep.Stats.CacheBadEntries != 0 {
				t.Errorf("CacheCertRejected = %d, CacheBadEntries = %d; want 1 and 0",
					rep.Stats.CacheCertRejected, rep.Stats.CacheBadEntries)
			}
			if rep.Stats.DegradedProcs != 0 {
				t.Errorf("%d procedures degraded", rep.Stats.DegradedProcs)
			}
			var got, want bytes.Buffer
			Render(&got, rep, RenderOptions{})
			Render(&want, ref, RenderOptions{})
			if got.String() != want.String() {
				t.Errorf("report differs from the uncached run:\n%s\nwant:\n%s", got.String(), want.String())
			}
			stripTimings(rep)
			stripTimings(ref)
			if !reflect.DeepEqual(rep, ref) {
				t.Errorf("report after rejecting the malformed certificate differs from the uncached run")
			}
		})
	}
}

// malformCertificate adds the term 99999:1 to the first invariant
// constraint of the first certificate file in dir that has one, and
// re-signs both the file and the digest its report pins.
func malformCertificate(t *testing.T, dir string) {
	t.Helper()
	certs, err := filepath.Glob(filepath.Join(dir, "*.cert"))
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range certs {
		data, err := os.ReadFile(cf)
		if err != nil {
			t.Fatal(err)
		}
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			t.Fatalf("%s: no header line", cf)
		}
		var batch cache.CertBatch
		if err := json.Unmarshal(data[nl+1:], &batch); err != nil {
			t.Fatal(err)
		}
		if !addFarTerm(&batch) {
			continue
		}
		payload, err := json.Marshal(&batch)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(payload)
		header := fmt.Sprintf("cssv-cache %d %s\n", cache.FormatVersion, hex.EncodeToString(sum[:]))
		if err := os.WriteFile(cf, append([]byte(header), payload...), 0o644); err != nil {
			t.Fatal(err)
		}
		resign(t, strings.TrimSuffix(cf, ".cert")+".rep", func(e *cache.Entry) {
			e.CertDigest = hex.EncodeToString(sum[:])
		})
		return
	}
	t.Fatal("fixture bug: no certificate file has an invariant constraint")
}

// addFarTerm appends the term 99999:1 to the first invariant constraint of
// the batch, reporting whether there was one.
func addFarTerm(batch *cache.CertBatch) bool {
	for _, c := range batch.Carriers {
		for _, sys := range c.Inv {
			if len(sys) > 0 {
				sys[0] += " 99999:1"
				return true
			}
		}
	}
	return false
}

// copyDir copies the regular files of one directory into another.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(from, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
