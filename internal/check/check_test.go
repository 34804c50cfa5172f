package check

import (
	"strings"
	"testing"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

// tagging is the §4.2 tagging encoding as the protocol runs it: streams
// minted by obsolete.NewTagTracker, whose updates list their item's earlier
// updates, read by obsolete.Enumeration.
var tagging = obsolete.Enumeration{}

// tagged mints sender s's tagging stream through obsolete.NewTagTracker, one
// update per tag: the message at index i has seq i+1.
func tagged(s ident.PID, tags ...uint32) []obsolete.Msg {
	tr := obsolete.NewTagTracker(64)
	out := make([]obsolete.Msg, len(tags))
	for i, tag := range tags {
		seq, annot := tr.Update(tag)
		out[i] = obsolete.Msg{Sender: s, Seq: seq, Annot: annot}
	}
	return out
}

func hasViolation(errs []error, substr string) bool {
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return true
		}
	}
	return false
}

func TestCleanExecutionVerifies(t *testing.T) {
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	m := tagged("p0", 7, 7)
	m1, m2 := m[0], m[1]
	r.Multicast(m1, 1)
	r.Multicast(m2, 1)
	for _, p := range []ident.PID{"p0", "p1"} {
		r.Deliver(p, m1, 1)
		r.Deliver(p, m2, 1)
		r.Install(p, 2, ident.NewPIDs("p0", "p1"))
	}
	if errs := r.Verify(); len(errs) != 0 {
		t.Fatalf("clean execution reported: %v", errs)
	}
}

func TestDetectsCreation(t *testing.T) {
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	r.Deliver("p0", tagged("p9", 1)[0], 1)
	if errs := r.Verify(); !hasViolation(errs, "creation") {
		t.Fatalf("creation not detected: %v", errs)
	}
}

func TestDetectsDuplication(t *testing.T) {
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	m := tagged("p0", 1)[0]
	r.Multicast(m, 1)
	r.Deliver("p1", m, 1)
	r.Deliver("p1", m, 1)
	if errs := r.Verify(); !hasViolation(errs, "duplication") {
		t.Fatalf("duplication not detected: %v", errs)
	}
}

func TestDetectsFIFOViolation(t *testing.T) {
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	m := tagged("p0", 1, 2)
	m1, m2 := m[0], m[1]
	r.Multicast(m1, 1)
	r.Multicast(m2, 1)
	r.Deliver("p1", m2, 1)
	r.Deliver("p1", m1, 1)
	if errs := r.Verify(); !hasViolation(errs, "fifo:") {
		t.Fatalf("fifo violation not detected: %v", errs)
	}
}

func TestDetectsViewDisagreement(t *testing.T) {
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	r.Install("p0", 2, ident.NewPIDs("p0", "p1"))
	r.Install("p1", 2, ident.NewPIDs("p0"))
	if errs := r.Verify(); !hasViolation(errs, "membership disagreement") {
		t.Fatalf("view disagreement not detected: %v", errs)
	}
}

func TestDetectsSVSViolation(t *testing.T) {
	// p0 delivers m1 in view 1; p1 installs view 2 without delivering m1
	// or anything covering it.
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	m1 := tagged("s", 1)[0]
	r.Multicast(m1, 1)
	r.Deliver("p0", m1, 1)
	r.Install("p0", 2, ident.NewPIDs("p0", "p1"))
	r.Install("p1", 2, ident.NewPIDs("p0", "p1"))
	if errs := r.Verify(); !hasViolation(errs, "svs:") {
		t.Fatalf("svs violation not detected: %v", errs)
	}
}

func TestSVSAllowsCoveredOmission(t *testing.T) {
	// p1 omits m1 but delivers m2 ⊒ m1 before installing view 2: legal.
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	m := tagged("s", 7, 7)
	m1, m2 := m[0], m[1]
	r.Multicast(m1, 1)
	r.Multicast(m2, 1)
	r.Deliver("p0", m1, 1)
	r.Deliver("p0", m2, 1)
	r.Deliver("p1", m2, 1)
	r.Install("p0", 2, ident.NewPIDs("p0", "p1"))
	r.Install("p1", 2, ident.NewPIDs("p0", "p1"))
	if errs := r.Verify(); len(errs) != 0 {
		t.Fatalf("covered omission flagged: %v", errs)
	}
}

func TestSVSChainCoverage(t *testing.T) {
	// Coverage through a chain m1 ≺ m2 ≺ m3 with only m3 delivered at p1:
	// the k-enumeration window is too small to encode m1 ≺ m3 directly,
	// but the closure must accept the chain.
	const k = 1 // window of 1: only immediate predecessors encodable
	rel := obsolete.KEnumeration{K: k}
	tr := obsolete.NewKTracker(k)
	s1, a1 := tr.Next()
	s2, a2 := tr.Next(s1)
	s3, a3 := tr.Next(s2)
	m1 := obsolete.Msg{Sender: "s", Seq: s1, Annot: a1}
	m2 := obsolete.Msg{Sender: "s", Seq: s2, Annot: a2}
	m3 := obsolete.Msg{Sender: "s", Seq: s3, Annot: a3}
	if rel.Obsoletes(m1, m3) {
		t.Fatal("test premise broken: window should truncate m1 ≺ m3")
	}

	r := NewRecorder(rel)
	r.SetInitialView(1)
	r.Multicast(m1, 1)
	r.Multicast(m2, 1)
	r.Multicast(m3, 1)
	r.Deliver("p0", m1, 1)
	r.Deliver("p0", m2, 1)
	r.Deliver("p0", m3, 1)
	r.Deliver("p1", m3, 1)
	r.Install("p0", 2, ident.NewPIDs("p0", "p1"))
	r.Install("p1", 2, ident.NewPIDs("p0", "p1"))
	if errs := r.Verify(); len(errs) != 0 {
		t.Fatalf("chain coverage not honoured: %v", errs)
	}
}

func TestDetectsFIFOSRViolation(t *testing.T) {
	// p1 delivers m3 but skipped m1, which nothing covers (different tag).
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	m := tagged("s", 1, 2, 2)
	m1, m2, m3 := m[0], m[1], m[2] // m3 covers m2 only
	r.Multicast(m1, 1)
	r.Multicast(m2, 1)
	r.Multicast(m3, 1)
	r.Deliver("p0", m1, 1)
	r.Deliver("p0", m2, 1)
	r.Deliver("p0", m3, 1)
	r.Deliver("p1", m3, 1)
	r.Install("p0", 2, ident.NewPIDs("p0", "p1"))
	r.Install("p1", 2, ident.NewPIDs("p0", "p1"))
	errs := r.Verify()
	if !hasViolation(errs, "fifo-sr:") && !hasViolation(errs, "svs:") {
		t.Fatalf("uncovered FIFO gap not detected: %v", errs)
	}
}

func TestFIFOSRAllowsCoveredGap(t *testing.T) {
	r := NewRecorder(tagging)
	r.SetInitialView(1)
	m := tagged("s", 5, 5)
	m1, m2 := m[0], m[1]
	r.Multicast(m1, 1)
	r.Multicast(m2, 1)
	// p1 skips m1, delivers m2 which covers it.
	r.Deliver("p1", m2, 1)
	r.Install("p1", 2, ident.NewPIDs("p0", "p1"))
	if errs := r.Verify(); len(errs) != 0 {
		t.Fatalf("covered gap flagged: %v", errs)
	}
}

func TestVSStrictness(t *testing.T) {
	// Under the empty relation every omission is a violation.
	r := NewRecorder(obsolete.Empty{})
	r.SetInitialView(1)
	m1 := obsolete.Msg{Sender: "s", Seq: 1}
	m2 := obsolete.Msg{Sender: "s", Seq: 2}
	r.Multicast(m1, 1)
	r.Multicast(m2, 1)
	r.Deliver("p0", m1, 1)
	r.Deliver("p0", m2, 1)
	r.Deliver("p1", m2, 1) // omitted m1: with Empty nothing covers it
	r.Install("p0", 2, ident.NewPIDs("p0", "p1"))
	r.Install("p1", 2, ident.NewPIDs("p0", "p1"))
	errs := r.Verify()
	if len(errs) == 0 {
		t.Fatal("VS omission not detected under empty relation")
	}
}

func TestLogAccessor(t *testing.T) {
	r := NewRecorder(nil)
	m := obsolete.Msg{Sender: "s", Seq: 1}
	r.Multicast(m, 1)
	r.Deliver("p0", m, 1)
	log := r.Log("p0")
	if len(log) != 1 || log[0].Kind != EvDeliver {
		t.Fatalf("Log = %+v", log)
	}
	// Mutating the returned slice must not affect the recorder.
	log[0].Meta.Seq = 99
	if r.Log("p0")[0].Meta.Seq != 1 {
		t.Fatal("Log aliases recorder state")
	}
}
