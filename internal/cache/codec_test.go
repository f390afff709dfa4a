package cache

import (
	"encoding/json"
	"math/big"
	"testing"

	"repro/internal/linear"
)

// FuzzCacheCodec holds the format-2 expression text to its contract:
// arbitrary input to DecodeExpr, DecodeSystem and DecodeDNF ends in a value
// or an error, never a panic; whatever decodes re-encodes to the same
// bytes; and encode∘decode returns every linear value exactly, including
// coefficients beyond int64.
func FuzzCacheCodec(f *testing.F) {
	for _, s := range []string{
		"0", "-1", "7 0:1", "-3 0:1 4:-2",
		"-9223372036854775808 0:9223372036854775807",
		"9223372036854775807 1:-9223372036854775808",
		"9223372036854775808 2:-9223372036854775809",
		"-170141183460469231731687303715884105728 3:1",
		"", " ", "0 ", "+1", "01", "-0", "0 0:0", "0 1:1 0:1", "0 1:1 1:2",
		"0 -1:1", "0 1:", "0 :1", "0 1:+2", "0 1:-0", "0 01:1", "0  1:1",
		"null", "[]", "[null]", `["ge 0"]`, `["eq -1 0:1"]`, `[["ge 0 0:1","eq 5"]]`,
		`[[],null]`, `["lt 0"]`, `["ge"]`, `["eq  0"]`,
	} {
		f.Add(s, int64(0), int64(1), uint16(0), uint8(0))
	}
	f.Add("", int64(-1<<63), int64(1<<63-1), uint16(3), uint8(64))
	f.Add("", int64(0), int64(-1), uint16(7), uint8(1))
	f.Fuzz(func(t *testing.T, s string, k, c int64, v uint16, shift uint8) {
		if e, err := DecodeExpr(Expr(s)); err == nil {
			if got := string(EncodeExpr(e)); got != s {
				t.Fatalf("DecodeExpr(%q) re-encodes as %q", s, got)
			}
		}
		var sys System
		if json.Unmarshal([]byte(s), &sys) == nil {
			if dec, err := DecodeSystem(sys); err == nil {
				reencoded(t, "system", sys, EncodeSystem(dec))
			}
		}
		var dnf DNF
		if json.Unmarshal([]byte(s), &dnf) == nil {
			if dec, err := DecodeDNF(dnf); err == nil {
				reencoded(t, "DNF", dnf, EncodeDNF(dec))
			}
		}

		// Encode∘decode on a value: k·2^shift plus c·x_v and c·2^shift·x_{v+1}.
		e := linear.NewExpr(new(big.Int).Lsh(big.NewInt(k), uint(shift)),
			linear.Term{V: int(v), K: big.NewInt(c)},
			linear.Term{V: int(v) + 1, K: new(big.Int).Lsh(big.NewInt(c), uint(shift))})
		dec, err := DecodeExpr(EncodeExpr(e))
		if err != nil {
			t.Fatalf("EncodeExpr output %q does not decode: %v", EncodeExpr(e), err)
		}
		if dec.Const().Cmp(e.Const()) != 0 || len(dec.Vars()) != len(e.Vars()) {
			t.Fatalf("round trip changed %q into %q", EncodeExpr(e), EncodeExpr(dec))
		}
		for _, x := range e.Vars() {
			if dec.Coef(x).Cmp(e.Coef(x)) != 0 {
				t.Fatalf("round trip changed coefficient %d of %q", x, EncodeExpr(e))
			}
		}
	})
}

// reencoded fails unless two DTOs marshal to the same JSON.
func reencoded(t *testing.T, what string, in, out any) {
	t.Helper()
	a, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("%s %s re-encodes as %s", what, a, b)
	}
}
