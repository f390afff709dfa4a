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
// incremental repair.
func TestIncrementalEmptyAfterUpdate(t *testing.T) {
	d := Universe(6)
	d = d.MeetConstraint(ge(5, -1, 0)) // x0 <= 5
	d = d.MeetConstraint(ge(0, 1, 0))  // x0 >= 0
	if !d.closed || d.IsEmpty() {
		t.Fatalf("precondition: want closed non-empty, got closed=%v empty=%v", d.closed, d.empty)
	}
	d = d.MeetConstraint(ge(-10, 1, 0)) // x0 >= 10: contradiction
	if !d.IsEmpty() {
		t.Fatal("negative cycle not detected by incremental repair")
	}
}

// TestIncrementalRepairMatchesFullClosure: repairing a handful of
// tightenings incrementally must yield exactly the matrix a full
// Floyd–Warshall closure computes.
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
		// Tighten up to maxDirty cells on the closed matrix, then
		// compare incremental repair against a from-scratch closure.
		inc := d.Clone()
		full := d.Clone()
		for k := 0; k < 1+rng.Intn(maxDirty); k++ {
			i, j := rng.Intn(6), rng.Intn(6)
			if i == j {
				continue
			}
			c := big.NewInt(int64(rng.Intn(17) - 8))
			inc.setBound(i, j, c)
			full.setBound(i, j, c)
		}
		if inc.dirty == nil && !inc.closed {
			t.Fatal("tightenings on a closed matrix must be tracked")
		}
		inc.close() // incremental path
		full.dirty = nil
		full.closed = false
		full.closeFull() // reference path
		if inc.empty != full.empty {
			t.Fatalf("trial %d: empty mismatch inc=%v full=%v", trial, inc.empty, full.empty)
		}
		if inc.empty {
			continue
		}
		ik, _ := inc.Key()
		fk, _ := full.Key()
		if ik != fk {
			t.Fatalf("trial %d: incremental repair diverges from full closure:\ninc:  %s\nfull: %s",
				trial, inc.String(nil), full.String(nil))
		}
	}
}

// TestCloseSkippedUnderExhaustedBudget: once the token is exhausted the
// closure is skipped entirely, leaving valid bounds and the pending
// dirty list intact for a later repair.
func TestCloseSkippedUnderExhaustedBudget(t *testing.T) {
	tok := budget.New(time.Time{}, 1)
	tok.Step(5) // trip the step budget
	cfg := &Config{Token: tok}
	d := cfg.Universe(6)
	d.closed = true // simulate a matrix closed before exhaustion
	d.setBound(1, 0, big.NewInt(4))
	d.close()
	if d.closed {
		t.Fatal("close must not run under an exhausted budget")
	}
	if len(d.dirty) != 1 {
		t.Fatalf("pending dirty list must survive the skipped close, got %v", d.dirty)
	}
	if got := d.mw[1][0]; got != 4 {
		t.Fatalf("bound written before the skipped close lost: %d", got)
	}
}

// TestRepairBudgetExhaustionMidway: a deadline passing between edge
// repairs stops repairAll after the current edge, leaving a valid
// unclosed matrix with the unrepaired edges still queued — and a later
// unbudgeted close finishes the job with no loss of precision.
func TestRepairBudgetExhaustionMidway(t *testing.T) {
	d := Universe(6)
	d = d.MeetConstraint(ge(9, -1, 0)) // x0 <= 9, closed afterwards
	if !d.closed {
		t.Fatal("precondition: matrix should be closed")
	}
	d.setBound(2, 1, big.NewInt(3))
	d.setBound(3, 1, big.NewInt(7))
	if len(d.dirty) != 2 {
		t.Fatalf("want 2 queued edges, got %v", d.dirty)
	}
	tok := budget.New(time.Now().Add(-time.Second), 0)
	if !d.repairAll(tok) {
		t.Fatal("repair of small bounds must not overflow")
	}
	if d.closed {
		t.Fatal("matrix must not claim closure after an interrupted repair")
	}
	if len(d.dirty) != 1 {
		t.Fatalf("want 1 still-queued edge, got %v", d.dirty)
	}
	// The interrupted matrix remains a valid bound set: finishing the
	// repair later (fresh budget) must match a from-scratch closure.
	full := d.Clone()
	full.dirty = nil
	full.closeFull()
	d.close()
	if !d.closed {
		t.Fatal("follow-up close should complete the queued repair")
	}
	dk, _ := d.Key()
	fk, _ := full.Key()
	if dk != fk {
		t.Fatalf("resumed repair diverges from full closure:\nresumed: %s\nfull:    %s", d.String(nil), full.String(nil))
	}
}
