// Package queue implements the FIFO ordered message sets of the SVS
// protocol (the to-deliver and delivered queues of the paper's Figure 1),
// including the purge function that removes messages obsoleted by a later
// message of the same view, and the bounded-capacity behaviour that drives
// the flow control studied in §5.
//
// # Storage layout
//
// Entries live in a power-of-two ring buffer addressed by monotonically
// increasing absolute positions (head..tail). PopHead advances head and
// zeroes the vacated slot — O(1), no memmove, no pinned payloads. Purged
// entries become zeroed tombstone slots that PopHead/iteration skip and
// that compaction reclaims when the ring wraps into them.
//
// # Sender index
//
// Obsolescence is per sender, and every relation lists what a message
// obsoletes (see obsolete.Relation). The queue keeps a per-(view, sender)
// seq-ordered index of its data entries for every relation but
// obsolete.Empty, which never purges, and an arriving message's purge looks
// up in its own sender's stream the sequence numbers its annotation lists:
// O(listed + matches · log stream), whatever the occupancy.
//
// # One purge
//
// A message purges what it obsoletes as it arrives (AppendPurge, or
// PurgeFor + ForceAppend when the caller settles flow-control credits for
// the casualties), and that is the only purge there is. It keeps the
// queue closed under the relation — no two entries m ≺ m' of one view —
// because with every stream appended in ascending order an arrival is newer
// than everything held from its sender: nothing queued obsoletes it, and
// what it obsoletes goes as it comes in. No entry is ever left for a sweep
// to find.
package queue

import (
	"bytes"
	"errors"
	"time"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

// Kind distinguishes the two kinds of queued entries of Figure 1: data
// messages and view (control) markers. Control entries are never purged.
type Kind uint8

const (
	// kindDead marks a tombstone slot left behind by a purge; the zero
	// Item is a dead slot.
	kindDead Kind = iota
	// Data is an application multicast message.
	Data
	// Control is a protocol marker (e.g. a view notification).
	Control
)

// Item is one entry of a protocol queue.
type Item struct {
	Kind Kind
	// View tags the view in which a data message was multicast; purge only
	// relates messages of the same view (Figure 1, purge()).
	View uint64
	// Epoch is the lineage of that view (0 for the founding lineage). It
	// rides along so deliveries report the true global view name even for
	// entries adopted across a partition merge; the queue itself never
	// inspects it — purging already only relates same-(view, sender)
	// streams appended by one engine, which never mixes epochs under one
	// view number.
	Epoch uint64
	// Meta carries sender, sequence number and obsolescence annotation.
	Meta obsolete.Msg
	// Payload is the opaque application payload of a data message.
	Payload []byte
	// Ctl carries the content of a control entry (e.g. the new view).
	Ctl any
	// At is the local enqueue timestamp, stamped by the engine only when a
	// delivery-latency histogram is attached (zero otherwise, and zero for
	// entries adopted from flush sets or state transfers).
	At time.Time
}

// ErrFull is returned by Append when the queue is at capacity.
var ErrFull = errors.New("queue: full")

// Stats accumulates the counters the evaluation section reports on.
type Stats struct {
	Appended uint64 // entries accepted
	Purged   uint64 // entries removed as obsolete
	Popped   uint64 // entries consumed
	Rejected uint64 // appends refused because the queue was full
	MaxLen   int    // high-water mark
}

// Queue is a FIFO ordered set of items with semantic purging. It is not
// safe for concurrent use; the protocol engine owns it from a single
// goroutine.
type Queue struct {
	rel      obsolete.Relation
	capacity int // 0 = unbounded
	stats    Stats

	// Ring storage (see ring.go). buf has power-of-two length; head and
	// tail are absolute positions, slot p lives at buf[p&mask].
	buf  []Item
	mask uint64
	head uint64
	tail uint64
	live int // non-tombstone entries in [head, tail)
	// spare is the previous ring, zeroed and retained by compact so a
	// same-size compaction (the common tombstone-reclaim case) swaps
	// buffers instead of allocating.
	spare []Item

	// Sender index (see index.go), kept unless never.
	idx   map[idxKey]*senderStream
	never bool // rel is obsolete.Empty: purging can never remove anything
	// seqs and hits are obsoletedBy's scratch (see purge.go), kept so the
	// arrival-time purge allocates nothing.
	seqs []ident.Seq
	hits []int
}

// New returns an empty queue using rel to recognise obsolete entries.
// capacity 0 means unbounded; otherwise Append fails with ErrFull when the
// queue holds capacity entries.
//
// A purge costs O(what the arrival's annotation lists + matches · log
// stream).
func New(rel obsolete.Relation, capacity int) *Queue {
	if rel == nil {
		rel = obsolete.Empty{}
	}
	q := &Queue{rel: rel, capacity: capacity}
	if _, ok := rel.(obsolete.Empty); ok {
		// The empty relation obsoletes nothing: skip both the index and
		// every purge (plain VS has no purging to pay for).
		q.never = true
		return q
	}
	q.idx = make(map[idxKey]*senderStream)
	return q
}

// Len returns the number of queued entries.
func (q *Queue) Len() int { return q.live }

// Cap returns the configured capacity (0 = unbounded).
func (q *Queue) Cap() int { return q.capacity }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return q.capacity > 0 && q.live >= q.capacity }

// Stats returns the accumulated counters.
func (q *Queue) Stats() Stats { return q.stats }

// Append adds it to the tail, or returns ErrFull when the queue is at
// capacity (the caller then exercises flow control, as in §5.3).
func (q *Queue) Append(it Item) error {
	if q.Full() {
		q.stats.Rejected++
		return ErrFull
	}
	q.push(it)
	return nil
}

// ForceAppend adds it to the tail regardless of capacity. The protocol
// uses it for control markers and for the agreed flush set, which must
// never be refused ("the protocol must always reserve separate buffer
// space for control information", §5.3).
func (q *Queue) ForceAppend(it Item) {
	q.push(it)
}

// AppendPurge purges the entries obsoleted by it, then appends it. The
// purge happens even if the append then fails with ErrFull — mirroring a
// network buffer where the arriving packet displaces obsolete ones before
// space is assessed.
func (q *Queue) AppendPurge(it Item) (purged int, err error) {
	purged = q.purgeFor(it, nil)
	return purged, q.Append(it)
}

// PopHead removes the head entry, if any, in O(1); the vacated slot is
// zeroed so the ring never pins popped payloads. Read the head through
// PeekHead first.
func (q *Queue) PopHead() {
	s := q.PeekHead()
	if s == nil {
		return
	}
	if !q.never && s.Kind == Data {
		q.idxDrop(idxKey{view: s.View, sender: s.Meta.Sender}, s.Meta.Seq, q.head)
	}
	*s = Item{}
	q.head++
	q.live--
	q.stats.Popped++
}

// PeekHead lends the head entry without removing it, or returns nil when
// the queue is empty. The entry stays the queue's: the pointer is valid
// until the queue's next mutation and must not be written through.
func (q *Queue) PeekHead() *Item {
	q.skipDeadHead()
	if q.head == q.tail {
		return nil
	}
	return q.slot(q.head)
}

// EachRef calls f on every entry in FIFO order without copying the Item,
// stopping early if f returns false. The pointer is only valid during the
// callback and must not be retained or written through; the callback must
// not mutate the queue.
func (q *Queue) EachRef(f func(*Item) bool) {
	for p := q.head; p != q.tail; p++ {
		it := q.slot(p)
		if it.Kind == kindDead {
			continue
		}
		if !f(it) {
			return
		}
	}
}

// Snapshot returns a copy of the queue contents in FIFO order. Payloads
// and annotations are cloned: the snapshot never aliases live queue bytes
// into the caller's hands.
func (q *Queue) Snapshot() []Item {
	out := make([]Item, 0, q.live)
	q.EachRef(func(it *Item) bool {
		c := *it
		c.Payload = bytes.Clone(it.Payload)
		c.Meta.Annot = bytes.Clone(it.Meta.Annot)
		out = append(out, c)
		return true
	})
	return out
}
