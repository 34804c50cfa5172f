package check

import (
	"sort"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

// Closure answers m ⊑* n queries under the reflexive-transitive closure of
// an encoded relation over a finite universe of messages — the "true"
// application-level relation of §3.4. Encodings such as k-enumeration
// truncate transitivity at their window; the closure restores the chains
// the application semantics guarantee.
//
// Obsolescence is per sender (see obsolete.Relation): the closure follows
// chains within each sender's seq-ordered stream and consults the relation
// only for an older message against a newer one of the same sender, so it
// is exact for every relation the protocol honours — and, like the
// protocol, ignores whatever else a relation relates.
//
// Closure is shared by the execution checker (Recorder) and the static
// relation verifier (internal/relcheck), which uses it to prove that every
// purge decision commutes with delivery.
type Closure struct {
	// reach[id] is the set of message ids that transitively cover id
	// within id's own sender stream.
	reach map[obsolete.MsgID]map[obsolete.MsgID]bool
}

// NewClosure precomputes the closure of rel over msgs. A nil rel means the
// empty relation. Messages must carry the annotations the relation reads;
// duplicate ids are collapsed.
func NewClosure(rel obsolete.Relation, msgs []obsolete.Msg) *Closure {
	if rel == nil {
		rel = obsolete.Empty{}
	}
	c := &Closure{reach: make(map[obsolete.MsgID]map[obsolete.MsgID]bool, len(msgs))}
	seen := make(map[obsolete.MsgID]bool, len(msgs))
	bySender := make(map[ident.PID][]obsolete.Msg)
	for _, m := range msgs {
		if seen[m.ID()] {
			continue
		}
		seen[m.ID()] = true
		bySender[m.Sender] = append(bySender[m.Sender], m)
	}
	for s := range bySender {
		stream := bySender[s]
		sort.Slice(stream, func(i, j int) bool { return stream[i].Seq < stream[j].Seq })
		// Dynamic programming back-to-front: reach(i) = ∪ over direct
		// successors j≻i of {j} ∪ reach(j).
		for i := len(stream) - 1; i >= 0; i-- {
			set := make(map[obsolete.MsgID]bool)
			for j := i + 1; j < len(stream); j++ {
				if rel.Obsoletes(stream[i], stream[j]) {
					set[stream[j].ID()] = true
					for id := range c.reach[stream[j].ID()] {
						set[id] = true
					}
				}
			}
			c.reach[stream[i].ID()] = set
		}
	}
	return c
}

// Covers reports m ⊑* n.
func (c *Closure) Covers(m, n obsolete.MsgID) bool {
	return m == n || c.reach[m][n]
}

// CoveredByAny reports whether some id in set covers m.
func (c *Closure) CoveredByAny(m obsolete.MsgID, set map[obsolete.MsgID]bool) bool {
	if set[m] {
		return true
	}
	for n := range c.reach[m] {
		if set[n] {
			return true
		}
	}
	return false
}
