package core

import (
	"os"
	"path/filepath"
	"testing"
)

// TestConfFingerprintBytes pins the cache-key configuration fingerprint.
// Deleting or renaming an Options field must not re-key existing cache
// entries silently (the benchmark's mirror prints the same lines), so a
// removed knob keeps its line as a literal of its old default.
func TestConfFingerprintBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"default", Options{}, "3d8daf7fe953bae075efbe52a5358fdde2af7d7cdd559072226e00805cc0eccb"},
		{"cascade", Options{Cascade: true}, "41ba9452cd623b49ee569489420357d1a49ab441e55370209b4f0e8bc847a29b"},
	} {
		if got := confFingerprint(tc.opts); got != tc.want {
			t.Errorf("%s: confFingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// certSrc is statsSrc plus a procedure with a discharged check, so a
// cached run writes certificate files too.
const certSrc = statsSrc + "void k(void) { char a[8]; a[3] = 0; }\n"

// TestCacheFailedWriteNotStored puts a directory where each procedure's
// report file goes, so every store's rename fails (even for root). The run
// must still analyze the procedures, but report them "uncached", not
// "stored", count no store, and leave no certificate file behind.
func TestCacheFailedWriteNotStored(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, CacheDir: dir}
	if _, err := AnalyzeSource("t.c", certSrc, opts); err != nil {
		t.Fatal(err)
	}
	reps, err := filepath.Glob(filepath.Join(dir, "*.rep"))
	if err != nil || len(reps) == 0 {
		t.Fatalf("cold run left no report files (err=%v)", err)
	}
	if certs, _ := filepath.Glob(filepath.Join(dir, "*.cert")); len(certs) == 0 {
		t.Fatal("cold run left no certificate files")
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		if err := os.MkdirAll(r, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := AnalyzeSource("t.c", certSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.CacheStores != 0 {
		t.Errorf("CacheStores = %d, want 0", rep.Stats.CacheStores)
	}
	if rep.Stats.CacheMisses != len(rep.Procs) {
		t.Errorf("CacheMisses = %d, want %d: every procedure is analyzed", rep.Stats.CacheMisses, len(rep.Procs))
	}
	for _, pr := range rep.Procs {
		if pr.CacheStatus != "uncached" {
			t.Errorf("%s: CacheStatus = %q, want \"uncached\"", pr.Name, pr.CacheStatus)
		}
	}
	if certs, _ := filepath.Glob(filepath.Join(dir, "*.cert")); len(certs) != 0 {
		t.Errorf("failed stores left certificate files %v", certs)
	}
}

// TestCacheDamagedEntryCountedOnce truncates every stored report. The
// exact-key lookup reads each damaged file and counts it; the revalidation
// scan for the same key must not read and count it again.
func TestCacheDamagedEntryCountedOnce(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, Cascade: true, CacheDir: dir}
	if _, err := AnalyzeSource("t.c", statsSrc, opts); err != nil {
		t.Fatal(err)
	}
	reps, err := filepath.Glob(filepath.Join(dir, "*.rep"))
	if err != nil || len(reps) != 2 {
		t.Fatalf("cold run left report files %v, want 2 (err=%v)", reps, err)
	}
	for _, r := range reps {
		data, err := os.ReadFile(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(r, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := AnalyzeSource("t.c", statsSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.CacheBadEntries != 2 {
		t.Errorf("CacheBadEntries = %d, want 2: one per damaged entry", rep.Stats.CacheBadEntries)
	}
}
