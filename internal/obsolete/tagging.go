package obsolete

// NewTagTracker returns the sender side of the item-tagging encoding of
// §4.2: every message carries the tag of the single data item it updates,
// and a later update of an item obsoletes the earlier ones. Update(tag)
// lists the tag's earlier updates from this sender and Reliable() lists
// nothing (creations, destructions and other traffic that "must be reliably
// delivered", §5.2); the relation that reads the annotations is Enumeration.
//
// An update lists its item's previous update wherever it lies, and every
// earlier update of the item among the last window sequence numbers: m3
// lists m2 and what m2 listed. So m3 purges m1 in a queue that never saw
// m2 — receivers whose m2 the sender dropped from a transaction or an
// outgoing queue, a repurged flush — as long as m1 is within the window.
// Further back, such a gap keeps m1, which is safe; as for the other
// enumerations, "only the recent messages ... need to be carried". Window
// must be positive.
func NewTagTracker(window int) *ItemTracker {
	tr := NewEnumTracker(window)
	tr.far = true
	return NewItemTracker(tr)
}
