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
		{"default", Options{}, "3d8daf7fe953bae075efbe52a5358fdde2af7d7cdd559072226e00805cc0eccb"},
		{"cascade", Options{Cascade: true}, "41ba9452cd623b49ee569489420357d1a49ab441e55370209b4f0e8bc847a29b"},
	} {
		if got := confFingerprint(tc.opts); got != tc.want {
			t.Errorf("%s: confFingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}
