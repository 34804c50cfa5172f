package queue

// Ring storage. Entries occupy a power-of-two circular buffer addressed
// by absolute positions: the entry at absolute position p lives in
// buf[p&mask], and [head, tail) is the physically occupied span (live
// entries plus purge tombstones). Absolute positions are stable for the
// lifetime of an entry — the sender index references them — and are only
// reassigned by compact, which rebuilds the index.

const minRing = 8

func (q *Queue) slot(p uint64) *Item { return &q.buf[p&q.mask] }

// push appends it at the tail, compacting or growing the ring when the
// physical span has no room, and maintains stats and the sender index.
func (q *Queue) push(it Item) {
	if it.Kind == kindDead {
		// A zero Kind is the tombstone marker: storing one would desync
		// the live counter (iteration skips it without accounting).
		panic("queue: Item with zero Kind")
	}
	if q.tail-q.head == uint64(len(q.buf)) {
		q.compact()
	}
	pos := q.tail
	*q.slot(pos) = it
	q.tail++
	q.live++
	if !q.never && it.Kind == Data {
		q.idxAdd(idxKey{view: it.View, sender: it.Meta.Sender}, it.Meta.Seq, pos)
	}
	q.stats.Appended++
	if q.live > q.stats.MaxLen {
		q.stats.MaxLen = q.live
	}
}

// compact rewrites the live entries into a fresh ring sized to keep the
// buffer at most half full, squeezing out tombstones. Positions change,
// so the sender index is rebuilt. Amortised O(1) per append: a compaction
// that merely reclaims tombstones frees at least half the buffer, and one
// that doesn't doubles it.
func (q *Queue) compact() {
	n := minRing
	for n < 2*q.live {
		n <<= 1
	}
	buf := q.spare
	q.spare = nil
	if len(buf) != n {
		buf = make([]Item, n)
	}
	w := uint64(0)
	for p := q.head; p != q.tail; p++ {
		s := q.slot(p)
		if s.Kind == kindDead {
			continue
		}
		buf[w] = *s
		w++
	}
	// Zero the old ring so it pins no payloads, then retain it: a queue
	// cycling through tombstones at steady length compacts repeatedly at
	// the same size, and the swap makes those compactions allocation-free.
	old := q.buf
	clear(old)
	q.spare = old
	q.buf = buf
	q.mask = uint64(n - 1)
	q.head, q.tail = 0, w
	if !q.never {
		q.rebuildIndex()
	}
}

// killSlot turns the slot at pos into a zeroed tombstone, releasing its
// payload. Callers handle the sender index themselves.
func (q *Queue) killSlot(pos uint64) {
	*q.slot(pos) = Item{}
	q.live--
}

// skipDeadHead advances head past tombstones so the head slot, if any, is
// live. Each tombstone is visited exactly once.
func (q *Queue) skipDeadHead() {
	for q.head != q.tail && q.slot(q.head).Kind == kindDead {
		q.head++
	}
}
