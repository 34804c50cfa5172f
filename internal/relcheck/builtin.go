package relcheck

import (
	"fmt"
	"sort"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

// Domain bounds the sampled message space of a built-in encoding: how many
// senders, how deep each sender's stream is, and — for tagging — how many
// distinct item tags the annotations draw from.
type Domain struct {
	Senders int
	Depth   int
	Tags    int
	// K parameterises the encoding itself: the k of k-enumeration, the
	// tracker window of enumeration and tagging. Unused by empty.
	K int
}

// DefaultDomain is the domain CI exercises the built-in encodings over:
// two senders of six messages cover every pair class (same/cross sender,
// inside/at/beyond the window) while C(12,6) interleavings stay
// exhaustively enumerable. Two tags keep same-tag chains of length three
// inside the domain, so tagging's transitivity claim is checked on real
// chains, not vacuously.
var DefaultDomain = Domain{Senders: 2, Depth: 6, Tags: 2, K: 4}

func (d Domain) withDefaults() Domain {
	if d.Senders <= 0 {
		d.Senders = DefaultDomain.Senders
	}
	if d.Depth <= 0 {
		d.Depth = DefaultDomain.Depth
	}
	if d.Tags <= 0 {
		d.Tags = DefaultDomain.Tags
	}
	if d.K <= 0 {
		d.K = DefaultDomain.K
	}
	return d
}

// BuiltinNames lists the registered built-in encodings in report order.
// "k-enumeration" is the bitmap encoding the paper evaluates (kenum.go +
// bitmap.go); its Bitmap annotation type is not itself a relation and so
// carries no capabilities of its own — see the audit note in bitmap.go.
func BuiltinNames() []string {
	return []string{"empty", "tagging", "enumeration", "k-enumeration"}
}

// Builtin returns the model of a named built-in encoding sampled over d.
// The streams are generated with the encoding's own sender-side tracker so
// annotations carry exactly what a real application would ship. An
// enumeration-style stream cycles through obsoleting nothing, the immediate
// predecessor, the predecessor at the window edge, and a two-predecessor
// batch, which exercises every annotation shape the encoding can emit. A
// tagging stream updates item i mod tags at message i, every fifth message
// reliable; it is read as enumeration.
func Builtin(name string, d Domain) (*Model, error) {
	d = d.withDefaults()
	m := &Model{Name: name, Source: "builtin", Transitive: true}
	switch name {
	case "empty":
		m.Rel = obsolete.Empty{}
	case "tagging", "enumeration":
		m.Rel = obsolete.Enumeration{}
		m.TransWindow = d.K // the tracker truncates closure at its window
	case "k-enumeration", "bitmap":
		m.Rel = obsolete.KEnumeration{K: d.K}
		m.TransWindow = d.K
	default:
		return nil, fmt.Errorf("relcheck: unknown built-in encoding %q (have %v)", name, BuiltinNames())
	}
	for s := 0; s < d.Senders; s++ {
		st := Stream{Sender: senderPID(s)}
		var tr obsolete.Tracker
		var tags *obsolete.ItemTracker
		switch name {
		case "tagging":
			tags = obsolete.NewTagTracker(d.K)
		case "enumeration":
			tr = obsolete.NewEnumTracker(d.K)
		case "k-enumeration", "bitmap":
			tr = obsolete.NewKTracker(d.K)
		}
		for i := 1; i <= d.Depth; i++ {
			msg := obsolete.Msg{Sender: st.Sender}
			switch {
			case tr != nil:
				msg.Seq, msg.Annot = tr.Next(trackerDirects(i, d.K)...)
			case tags != nil && i%5 == 0:
				msg.Seq, msg.Annot = tags.Reliable()
			case tags != nil:
				msg.Seq, msg.Annot = tags.Update(uint32(i % d.Tags))
			default: // empty
				msg.Seq = seq(i)
			}
			st.Msgs = append(st.Msgs, msg)
		}
		m.Streams = append(m.Streams, st)
	}
	sort.Slice(m.Streams, func(i, j int) bool { return m.Streams[i].Sender < m.Streams[j].Sender })
	return m, nil
}

// trackerDirects picks the direct predecessors message i (1-based)
// obsoletes, cycling through the annotation shapes of §4.1: reliable,
// single immediate update, window-edge reach, multi-item batch commit.
func trackerDirects(i, k int) []ident.Seq {
	switch i % 4 {
	case 1:
		return nil
	case 2:
		return directs(i - 1)
	case 3:
		edge := i - k
		if edge < 1 {
			edge = 1
		}
		return directs(edge)
	default:
		return directs(i-1, i-2)
	}
}

// directs converts 1-based message indexes to sequence numbers, dropping
// indexes before the start of the stream.
func directs(is ...int) []ident.Seq {
	out := make([]ident.Seq, 0, len(is))
	for _, i := range is {
		if i >= 1 {
			out = append(out, seq(i))
		}
	}
	return out
}

func seq(i int) ident.Seq { return ident.Seq(i) }
