// Package obsolete implements message obsolescence: the application-supplied
// irreflexive partial order at the heart of Semantic View Synchrony
// (Pereira, Rodrigues, Oliveira — DSN 2002, §3.2 and §4).
//
// A message m is obsoleted by m' (written m ≺ m') when delivering m' makes
// the delivery of m unnecessary for application correctness. The protocol
// may then purge m from its buffers provided m' is (or will be) delivered.
//
// The package provides the three encodings discussed in §4.2 of the paper,
// each computed at the sender into an annotation that lists what the
// message obsoletes:
//
//   - Tagging: each message carries the tag of the single data item it
//     updates; a later update of the same item obsoletes earlier ones.
//     NewTagTracker lists an update's earlier updates of its item, and
//     Enumeration reads the list.
//   - Enumeration: each message explicitly enumerates the sequence numbers
//     of the (transitively) obsoleted predecessors.
//   - KEnumeration: each message carries a k-bit bitmap over its k closest
//     predecessors; transitive closure is computed with shift-OR at the
//     sender. This is the representation the paper evaluates.
//
// All encodings relate messages of a single sender only: tags, enumerations
// and bitmaps are interpreted relative to the sender's own sequence-number
// stream, exactly as in the paper ("tags are ... used in combination with
// the sender identification and sequence numbers", §4.2).
package obsolete

import (
	"repro/internal/ident"
)

// Msg is the protocol-level metadata of a multicast message: who sent it,
// its position in the sender's FIFO stream, and the encoding-specific
// obsolescence annotation supplied by the application at multicast time.
type Msg struct {
	Sender ident.PID
	Seq    ident.Seq
	Annot  []byte
}

// ID returns the globally unique identifier of the message.
func (m Msg) ID() MsgID { return MsgID{Sender: m.Sender, Seq: m.Seq} }

// MsgID uniquely identifies a multicast message.
type MsgID struct {
	Sender ident.PID
	Seq    ident.Seq
}

// Relation is an obsolescence relation over messages, read off the newer
// message's annotation. Implementations must be pure functions of the
// message metadata: given the same messages, they must always give the same
// answer, on every process.
//
// Obsoletes(old, new) reports old ≺ new, i.e. "new makes old obsolete". It
// holds exactly when old.Sender == new.Sender and new's listing
// (AppendObsoleted) names old.Seq. Obsolescence is per sender (§4.2: "tags
// are ... used in combination with the sender identification and sequence
// numbers"), whether new obsoletes old never depends on old's annotation, and
// a listing names only numbers below new.Seq — so the relation is
// irreflexive and antisymmetric.
//
// Safety is judged against the reflexive-transitive closure of what the
// listings name within one sender's stream (internal/check.Closure), and a
// message purges what it lists as it arrives: with m1 ≺ m2 ≺ m3, m2's
// arrival purges m1 and m3's purges m2. The trackers of this package fold
// the closure into each listing within their window, so m3 also purges m1
// in a queue that never saw m2. A listing that names only direct
// predecessors purges a chain fully only in a queue every link passes
// through: one that holds m1 and m3 without m2 keeps m1, which is safe.
// The encodings of this package read Obsoletes off their listing (listed),
// so the two cannot disagree.
type Relation interface {
	// Name identifies the encoding, for logs and experiment output.
	Name() string
	// Obsoletes reports whether new makes old obsolete (old ≺ new).
	Obsoletes(old, new Msg) bool
	// AppendObsoleted appends to dst the sequence numbers s, floor ≤ s <
	// new.Seq, of the messages of new's sender that new obsoletes, and
	// returns the extended slice. The order is unspecified and a number may
	// repeat. internal/queue looks the numbers up in the sender's
	// seq-ordered stream, so an arrival-time purge costs what the annotation
	// lists, not what the buffer holds.
	AppendObsoleted(dst []ident.Seq, new Msg, floor ident.Seq) []ident.Seq
}

// listed is Obsoletes for a relation that lists: old ≺ new exactly when the
// senders match and new's listing, from old.Seq up, names old.Seq.
func listed(r Relation, old, new Msg) bool {
	if old.Sender != new.Sender || old.Seq >= new.Seq {
		return false
	}
	for _, s := range r.AppendObsoleted(nil, new, old.Seq) {
		if s == old.Seq {
			return true
		}
	}
	return false
}

// Empty is the empty obsolescence relation: no message ever obsoletes
// another. Running the SVS protocol with Empty yields classic View
// Synchrony (§3.2: "If no messages m, m' exist such that m ≺ m', SVS
// reduces to conventional VS").
type Empty struct{}

// Name implements Relation.
func (Empty) Name() string { return "empty" }

// Obsoletes implements Relation; it always reports false.
func (Empty) Obsoletes(_, _ Msg) bool { return false }

// AppendObsoleted implements Relation; it lists nothing.
func (Empty) AppendObsoleted(dst []ident.Seq, _ Msg, _ ident.Seq) []ident.Seq { return dst }
