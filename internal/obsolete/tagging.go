package obsolete

import "encoding/binary"

// Tagging is the item-tagging encoding of §4.2: every message carries the
// integer tag of the single data item it updates, and a message obsoletes
// every earlier message of the same sender carrying the same tag.
//
// Messages with an empty annotation are untagged: they never obsolete and
// are never obsoleted (creations, destructions, and other control traffic
// that "must be reliably delivered", §5.2).
//
// Tagging is the simplest encoding but, as the paper notes, it cannot
// express that one message obsoletes several unrelated earlier messages,
// which is what multi-item commits need — use KEnumeration for those.
type Tagging struct{}

// Name implements Relation.
func (Tagging) Name() string { return "tagging" }

// Obsoletes implements Relation: same sender, same tag, strictly earlier.
func (Tagging) Obsoletes(old, new Msg) bool {
	if old.Sender != new.Sender || old.Seq >= new.Seq {
		return false
	}
	ot, ok := TagOf(old)
	if !ok {
		return false
	}
	nt, ok := TagOf(new)
	if !ok {
		return false
	}
	return ot == nt
}

// TagAnnot builds the annotation for a message updating the item with the
// given tag.
func TagAnnot(tag uint32) []byte {
	var p [4]byte
	binary.LittleEndian.PutUint32(p[:], tag)
	return p[:]
}

// NoTag is the annotation of an untagged (fully reliable) message.
func NoTag() []byte { return nil }

// TagOf extracts the item tag of m, reporting false for untagged messages.
func TagOf(m Msg) (uint32, bool) {
	if len(m.Annot) != 4 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(m.Annot), true
}
