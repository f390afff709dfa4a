package certify_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/certify"
	"repro/internal/ip"
	"repro/internal/linear"
)

// mutateCertificates damages a decoded batch the way a well-signed but
// malformed cache entry could, in place. op selects the damage, at the
// certificate, constraint or statement it lands on, and v the value it
// writes:
//
//	1: add the term 1·x_v to one invariant constraint (v may lie beyond
//	   the carrier's dimension, or be negative);
//	2: set one certificate's AssertIdx to v;
//	3: shorten (v < 0) or lengthen (v > 0) one certificate's invariant map;
//	4: set the target variable of one assignment or havoc to v.
//
// Every other op leaves the batch as it decoded.
func mutateCertificates(certs []*certify.Certificate, op uint8, at, v int) {
	cert := certs[at%len(certs)]
	switch op % 5 {
	case 1:
		var n int
		for _, sys := range cert.Inv {
			n += len(sys)
		}
		if n == 0 {
			return
		}
		at %= n
		for _, sys := range cert.Inv {
			if at < len(sys) {
				sys[at].E = sys[at].E.Add(linear.VarExpr(v))
				return
			}
			at -= len(sys)
		}
	case 2:
		cert.AssertIdx = v
	case 3:
		switch {
		case v < 0 && -v <= len(cert.Inv):
			cert.Inv = cert.Inv[:len(cert.Inv)+v]
		case v > 0:
			cert.Inv = append(cert.Inv, make([]linear.System, v%4)...)
		}
	case 4:
		var targets []ip.Stmt
		for _, s := range cert.Prog.Stmts {
			switch s.(type) {
			case *ip.Assign, *ip.Havoc:
				targets = append(targets, s)
			}
		}
		if len(targets) == 0 {
			return
		}
		switch s := targets[at%len(targets)].(type) {
		case *ip.Assign:
			s.V = v
		case *ip.Havoc:
			s.V = v
		}
	}
}

// FuzzVerifyCertificate decodes a certificate batch in the cache's .cert
// encoding, damages it with mutateCertificates, and requires the compiled
// checker (VerifyAll) and the big.Int reference (VerifyReference) to
// return the same results — neither may panic. The seeds in
// testdata/fuzz/FuzzVerifyCertificate are corpus batches stored by
// `cssv -cascade -certify -cache-dir` runs over testdata/suite, one with
// the term 99999:1 added to an invariant constraint (a variable far beyond
// its carrier's dimension), and each mutation at indices past the
// dimension. corpus-remove-newline-trivial holds empty invariants at the
// points from which no certified check can be reached, as the analysis
// exports them. Run `go test -fuzz=FuzzVerifyCertificate ./internal/certify`
// to search beyond them.
func FuzzVerifyCertificate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, op uint8, at uint16, v int32) {
		if len(data) > 1<<16 {
			return // keep eliminations small
		}
		var batch cache.CertBatch
		if json.Unmarshal(data, &batch) != nil {
			return
		}
		certs, err := cache.DecodeCertificates(&batch)
		if err != nil || len(certs) == 0 {
			return
		}
		mutateCertificates(certs, op, int(at), int(v))
		got, want := certify.VerifyAll(certs), certify.VerifyReference(certs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compiled checker disagrees with the reference:\ngot  %+v\nwant %+v", got, want)
		}
	})
}
