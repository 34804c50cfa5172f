// Package obsolete implements message obsolescence: the application-supplied
// irreflexive partial order at the heart of Semantic View Synchrony
// (Pereira, Rodrigues, Oliveira — DSN 2002, §3.2 and §4).
//
// A message m is obsoleted by m' (written m ≺ m') when delivering m' makes
// the delivery of m unnecessary for application correctness. The protocol
// may then purge m from its buffers provided m' is (or will be) delivered.
//
// The package provides the three encodings discussed in §4.2 of the paper:
//
//   - Tagging: each message carries the integer tag of the single data item
//     it updates; a later update of the same item obsoletes earlier ones.
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

// Relation is an obsolescence relation over messages. Implementations must
// be pure functions of the message metadata: given the same pair of
// messages, Obsoletes must always return the same answer, on every process.
//
// Obsoletes(old, new) reports old ≺ new, i.e. "new makes old obsolete".
// Implementations must guarantee the partial-order laws of §3.2:
//
//   - irreflexive: never Obsoletes(m, m);
//   - antisymmetric: Obsoletes(a, b) ⇒ !Obsoletes(b, a);
//   - transitive as encoded: if the application declares a ≺ b and b ≺ c,
//     the annotation of c must also answer a ≺ c (the trackers in this
//     package compute this closure automatically).
//
// Obsolescence is per sender (§4.2: "tags are ... used in combination with
// the sender identification and sequence numbers"): the protocol asks
// Obsoletes(old, new) only for old.Sender == new.Sender and old.Seq <
// new.Seq, and a relation that relates any other pair has that pair
// ignored — it can only ever purge less. Every encoding in this package
// relates nothing else; internal/relcheck reports a relation that does.
type Relation interface {
	// Name identifies the encoding, for logs and experiment output.
	Name() string
	// Obsoletes reports whether new makes old obsolete (old ≺ new).
	Obsoletes(old, new Msg) bool
}

// Listed is an optional capability of a Relation: whether old ≺ new
// depends on old's sequence number alone — never on old's annotation — and
// the relation can read off new's annotation every sequence number new
// obsoletes. Enumeration (the explicit list) and KEnumeration (the set bits
// of the bitmap) have this property; Tagging does not, since it compares the
// two messages' tags.
//
// Consumers (internal/queue) look the listed sequence numbers up in the
// sender's seq-ordered stream, so an arrival-time purge costs what the
// annotation lists, not what the buffer holds.
type Listed interface {
	// AppendObsoleted appends to dst the sequence numbers s, floor ≤ s <
	// new.Seq, such that new obsoletes the message (new.Sender, s), and
	// returns the extended slice: s is listed exactly when
	// Obsoletes(Msg{new.Sender, s, any annotation}, new). The order is
	// unspecified and a number may repeat.
	AppendObsoleted(dst []ident.Seq, new Msg, floor ident.Seq) []ident.Seq
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

// Func adapts a plain function to the Relation interface. It is intended
// for tests and for applications with bespoke semantics. Like every
// relation, F is only ever consulted for pairs of one sender with old older
// than new (see Relation).
type Func struct {
	Label string
	F     func(old, new Msg) bool
}

// Name implements Relation.
func (f Func) Name() string { return f.Label }

// Obsoletes implements Relation.
func (f Func) Obsoletes(old, new Msg) bool { return f.F(old, new) }

var _ Relation = Func{}

// CoveredBy reports whether m ⊑ n, the reflexive closure of the relation:
// m equals n or m ≺ n. It defines the test transition t3 of the paper's
// Figure 1 applies to an incoming message against every buffered one; the
// protocol answers it with the sender's reception frontier, since every
// cover of m is m itself or a later message of m's own sender.
func CoveredBy(rel Relation, m, n Msg) bool {
	if m.Sender == n.Sender && m.Seq == n.Seq {
		return true
	}
	return rel.Obsoletes(m, n)
}
