package core

import "testing"

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
		{"default", Options{}, "5c3d601e2d3f64e8073cbb0d2cb403d9dfc0ecaf26b5f35e9ab9b0edd973e4f4"},
		{"cascade", Options{Cascade: true}, "45ce888beb9e8787dcab689ea072f7c0e7076e6fc61cb6b0aa80264a3234fa73"},
	} {
		if got := confFingerprint(tc.opts); got != tc.want {
			t.Errorf("%s: confFingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}
