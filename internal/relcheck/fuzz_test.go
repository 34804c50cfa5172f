package relcheck

import (
	"testing"

	"repro/internal/check"
	"repro/internal/obsolete"
)

// FuzzRelationLaws drives randomized FIFO streams through each built-in
// encoding and asserts the properties svs-check proves over its fixed
// domain, on arbitrary annotation shapes and arrival orders:
//
//   - irreflexivity and antisymmetry over the generated universe, and
//   - purge safety for the generated arrival order: every message the
//     queue purged is covered by a delivered one under the closure (the
//     confluence core: purging commutes with delivery).
//
// Each input byte appends one message: the low bit picks the sender, the
// next two bits pick the annotation shape (nothing, immediate
// predecessor, window-edge reach, two-message batch — the shapes of
// §4.1), the rest seed the tag; tagging streams come from
// obsolete.NewTagTracker. The byte order doubles as the arrival order, so
// the fuzzer explores interleavings the fixed svs-check domain does not.
func FuzzRelationLaws(f *testing.F) {
	// Corpus seeds mirror the witness shapes svs-check minimization
	// produces (see examples/unsound-*.yaml): a window-edge purge pair
	// "p1:1 ≺ p1:4", a strict cross-sender alternation like the
	// "p1:1 ≺ p2:2" sender-local witness, and a batch-heavy single-sender
	// run.
	f.Add(uint8(3), uint8(4), []byte{0x00, 0x00, 0x00, 0x04}) // p1 run ending in a window-edge reach
	f.Add(uint8(3), uint8(2), []byte{0x00, 0x01, 0x00, 0x01}) // cross-sender alternation
	f.Add(uint8(2), uint8(4), []byte{0x06, 0x06, 0x06, 0x06}) // batch annotations back to back
	f.Add(uint8(1), uint8(3), []byte{0x10, 0x31, 0x52, 0x73}) // tagging, varied tags
	f.Add(uint8(0), uint8(1), []byte{0xff, 0x00})             // empty relation, both senders

	f.Fuzz(func(t *testing.T, encSel, kSel uint8, data []byte) {
		name := BuiltinNames()[int(encSel)%len(BuiltinNames())]
		k := 1 + int(kSel)%8
		rel, arrivals := fuzzStreams(name, k, data)
		if len(arrivals) == 0 {
			return
		}

		for i, a := range arrivals {
			if rel.Obsoletes(a, a) {
				t.Fatalf("%s: %s ≺ itself", name, msgStr(a))
			}
			for _, b := range arrivals[i+1:] {
				if a.ID() == b.ID() {
					continue
				}
				if rel.Obsoletes(a, b) && rel.Obsoletes(b, a) {
					t.Fatalf("%s: antisymmetry: %s ⇄ %s", name, msgStr(a), msgStr(b))
				}
			}
		}

		if m, bad := unsafePurge(rel, check.NewClosure(rel, arrivals), arrivals); bad {
			t.Fatalf("%s: arrivals %s purge %s and deliver nothing that covers it",
				name, msgsStr(arrivals), msgStr(m))
		}
	})
}

// fuzzStreams decodes fuzz input into per-sender FIFO streams of the named
// encoding, returning the relation and the arrival order (= byte order).
func fuzzStreams(name string, k int, data []byte) (obsolete.Relation, []obsolete.Msg) {
	const maxMsgs = 48
	if len(data) > maxMsgs {
		data = data[:maxMsgs]
	}
	var rel obsolete.Relation
	switch name {
	case "empty":
		rel = obsolete.Empty{}
	case "tagging", "enumeration":
		rel = obsolete.Enumeration{}
	default:
		rel = obsolete.KEnumeration{K: k}
	}

	type sender struct {
		tr   obsolete.Tracker
		tags *obsolete.ItemTracker
		next int
	}
	senders := make([]*sender, 2)
	for i := range senders {
		s := &sender{next: 1}
		switch name {
		case "tagging":
			s.tags = obsolete.NewTagTracker(k)
		case "enumeration":
			s.tr = obsolete.NewEnumTracker(k)
		case "k-enumeration":
			s.tr = obsolete.NewKTracker(k)
		}
		senders[i] = s
	}

	var arrivals []obsolete.Msg
	for _, b := range data {
		si := int(b & 1)
		s := senders[si]
		m := obsolete.Msg{Sender: senderPID(si)}
		switch {
		case s.tr != nil:
			i := s.next
			var direct []int
			switch (b >> 1) & 3 {
			case 1:
				direct = []int{i - 1}
			case 2:
				edge := i - k
				if edge < 1 {
					edge = 1
				}
				direct = []int{edge}
			case 3:
				direct = []int{i - 1, i - 2}
			}
			m.Seq, m.Annot = s.tr.Next(directs(direct...)...)
		case s.tags != nil && b>>1&1 != 0: // some messages stay untagged (reliable)
			m.Seq, m.Annot = s.tags.Reliable()
		case s.tags != nil:
			m.Seq, m.Annot = s.tags.Update(uint32(b >> 2))
		default:
			m.Seq = seq(s.next)
		}
		s.next++
		arrivals = append(arrivals, m)
	}
	return rel, arrivals
}
