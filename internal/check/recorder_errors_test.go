package check

import (
	"strings"
	"testing"

	"repro/internal/ident"
)

// countViolations counts errors mentioning substr.
func countViolations(errs []error, substr string) int {
	n := 0
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			n++
		}
	}
	return n
}

// TestRecorderDistinctViolationsInOneExecution builds a single execution
// that is broken in three independent ways — a duplicate delivery, a
// delivery of a message never multicast, and a membership disagreement on
// an installed view — and asserts the Recorder reports each as its own
// violation, none masking the others, with nothing else flagged.
func TestRecorderDistinctViolationsInOneExecution(t *testing.T) {
	r := NewRecorder(tagging)
	r.SetInitialView(1)

	good := tagged("p0", 1)[0]
	r.Multicast(good, 1)

	// p1: delivers the legitimate message twice (duplication), plus a
	// message nobody multicast (creation).
	r.Deliver("p1", good, 1)
	r.Deliver("p1", good, 1)
	ghost := tagged("p9", 2)[0]
	r.Deliver("p1", ghost, 1)

	// p0 delivers cleanly; then p0 and p1 install view 2 with different
	// membership (view agreement violation).
	r.Deliver("p0", good, 1)
	r.Install("p0", 2, ident.NewPIDs("p0", "p1"))
	r.Install("p1", 2, ident.NewPIDs("p0"))

	errs := r.Verify()
	for _, want := range []string{"duplication", "creation", "membership disagreement"} {
		if got := countViolations(errs, want); got != 1 {
			t.Errorf("want exactly 1 %q violation, got %d in %v", want, got, errs)
		}
	}
	// The three faults above are the only integrity/fifo/view breakages;
	// the ghost delivery additionally shows up to SVS-layer checks at
	// most once each. Pin the total so a regression that double-reports
	// (or swallows) a family is caught.
	if len(errs) < 3 {
		t.Fatalf("want at least the 3 distinct violations, got %v", errs)
	}
	if got := countViolations(errs, "integrity:"); got != 2 {
		t.Errorf("want 2 integrity violations (duplication + creation), got %d in %v", got, errs)
	}
	if got := countViolations(errs, "views:"); got != 1 {
		t.Errorf("want 1 view violation, got %d in %v", got, errs)
	}
	// The duplicate delivery is also, necessarily, a FIFO regression
	// (same sequence number twice) — exactly one such echo, no more.
	if got := countViolations(errs, "fifo:"); got != 1 {
		t.Errorf("want 1 fifo echo of the duplicate, got %d in %v", got, errs)
	}
}

// TestRecorderDuplicatePerProcess: duplication is per process — two
// different processes each delivering a message once is fine.
func TestRecorderDuplicatePerProcess(t *testing.T) {
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	m := tagged("p0", 1)[0]
	r.Multicast(m, 1)
	r.Deliver("p0", m, 1)
	r.Deliver("p1", m, 1)
	if errs := r.Verify(); countViolations(errs, "duplication") != 0 {
		t.Fatalf("cross-process delivery misreported as duplication: %v", errs)
	}
}

// TestRecorderCreationPerDelivery: each delivery of a never-multicast
// message is its own creation violation, even for the same message.
func TestRecorderCreationPerDelivery(t *testing.T) {
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	ghost := tagged("p9", 1, 1, 1)[2] // p9:3
	r.Deliver("p0", ghost, 1)
	r.Deliver("p1", ghost, 1)
	errs := r.Verify()
	if got := countViolations(errs, "creation"); got != 2 {
		t.Fatalf("want 2 creation violations (one per process), got %d in %v", got, errs)
	}
}

// TestRecorderViewDisagreementKeepsFirstMembership: the first recorded
// installation fixes a view's membership; every later disagreeing install
// is reported against it.
func TestRecorderViewDisagreementKeepsFirstMembership(t *testing.T) {
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	r.Install("p0", 2, ident.NewPIDs("p0", "p1", "p2"))
	r.Install("p1", 2, ident.NewPIDs("p0", "p1"))
	r.Install("p2", 2, ident.NewPIDs("p0", "p2"))
	errs := r.Verify()
	if got := countViolations(errs, "membership disagreement"); got != 2 {
		t.Fatalf("want 2 disagreement violations, got %d in %v", got, errs)
	}
}

// TestRecorderRegressingViewOrder: a process installing a view id not
// greater than its previous one is flagged even when memberships agree.
func TestRecorderRegressingViewOrder(t *testing.T) {
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	members := ident.NewPIDs("p0", "p1")
	r.Install("p0", 3, members)
	r.Install("p0", 2, members)
	errs := r.Verify()
	if got := countViolations(errs, "installed view v2 after id 3"); got != 1 {
		t.Fatalf("view order regression not reported once: %v", errs)
	}
}
