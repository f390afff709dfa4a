package zone

import (
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/budget"
)

// TestIncrementalEmptyAfterUpdate: a single tightening that closes a
// negative cycle on an already-closed matrix must be detected by the
// repair on write.
func TestIncrementalEmptyAfterUpdate(t *testing.T) {
	d := Universe(6)
	d = d.MeetConstraint(ge(5, -1, 0)) // x0 <= 5
	d = d.MeetConstraint(ge(0, 1, 0))  // x0 >= 0
	if !d.closed || d.IsEmpty() {
		t.Fatalf("precondition: want closed non-empty, got closed=%v empty=%v", d.closed, d.empty)
	}
	d.setBound(0, 1, big.NewInt(-10)) // x0 >= 10: contradiction
	if !d.empty {
		t.Fatal("negative cycle not detected by the repair on write")
	}
	if !Universe(6).MeetConstraint(ge(5, -1, 0)).MeetConstraint(ge(-10, 1, 0)).IsEmpty() {
		t.Fatal("contradictory meets left the zone non-empty")
	}
}

// TestIncrementalRepairMatchesFullClosure: repairing each tightening of a
// closed matrix as it is written must yield exactly the matrix a full
// Floyd–Warshall closure computes from the same tightenings.
func TestIncrementalRepairMatchesFullClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		d := Universe(5)
		for k := 0; k < 4; k++ {
			i, j := rng.Intn(6), rng.Intn(6)
			if i == j {
				continue
			}
			d.setBound(i, j, big.NewInt(int64(rng.Intn(21)-6)))
		}
		d.close()
		if d.empty {
			continue
		}
		// Tighten a few cells of the closed matrix: inc repairs each on
		// write, full records them unclosed and closes from scratch.
		inc := d.clone()
		full := d.clone()
		full.closed = false
		for k := 0; k < 1+rng.Intn(8); k++ {
			i, j := rng.Intn(6), rng.Intn(6)
			if i == j {
				continue
			}
			c := big.NewInt(int64(rng.Intn(17) - 8))
			inc.setBound(i, j, c)
			full.setBound(i, j, c)
			if !inc.closed && !inc.empty {
				t.Fatalf("trial %d: tightening a closed matrix must repair it", trial)
			}
		}
		full.close()
		if inc.empty != full.empty {
			t.Fatalf("trial %d: empty mismatch inc=%v full=%v", trial, inc.empty, full.empty)
		}
		if inc.empty {
			continue
		}
		ik, _ := inc.Key()
		fk, _ := full.Key()
		if ik != fk {
			t.Fatalf("trial %d: repair on write diverges from full closure:\ninc:  %s\nfull: %s",
				trial, inc.String(nil), full.String(nil))
		}
	}
}

// TestCloseSkippedUnderExhaustedBudget: once the token is exhausted a
// tightening is not repaired and the closure is skipped entirely, leaving
// valid bounds on an unclosed matrix.
func TestCloseSkippedUnderExhaustedBudget(t *testing.T) {
	tok := budget.New(time.Time{}, 1)
	tok.Step(5) // trip the step budget
	cfg := &Config{Token: tok}
	d := cfg.Universe(6)
	d.setBound(1, 0, big.NewInt(4))
	d.setBound(2, 1, big.NewInt(3))
	if d.closed {
		t.Fatal("a tightening must not be repaired under an exhausted budget")
	}
	d.close()
	if d.closed {
		t.Fatal("close must not run under an exhausted budget")
	}
	if d.mw[1][0] != 4 || d.mw[2][1] != 3 || d.mw[2][0] != noBound {
		t.Fatalf("want the written bounds and no derived one, got cells (1,0)=%d (2,1)=%d (2,0)=%d",
			d.mw[1][0], d.mw[2][1], d.mw[2][0])
	}
}
