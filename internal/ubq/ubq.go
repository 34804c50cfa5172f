// Package ubq is the one unbounded hand-off of the repository: a mailbox
// whose pushes never block and whose single consumer receives, in one
// channel operation, everything pushed since its last receive. No
// goroutine runs behind a mailbox read in batches. The paper's model
// places all bounded buffering (and hence flow control) in the protocol
// layer, so the transport inboxes, the fault injector's delay links and
// the failure detectors' subscriptions all hand off through it and exert
// no backpressure of their own.
package ubq

import "sync"

// keepCap is the largest buffer a mailbox keeps for reuse. A batch that
// grows beyond it is not kept: it is freed as soon as its consumer drops
// it, so an idle mailbox holds at most three buffers of this size, and the
// items of the last three batches that fit in them.
const keepCap = 1024

// Mailbox is an unbounded FIFO hand-off of T to one consumer, in batches.
//
// The pending batch sits in a one-slot channel. A push that finds it there
// takes it back, appends and posts it again. A push that finds the slot
// empty knows the consumer took the last batch, and posts a fresh batch in
// the buffer it posted two batches before: the consumer released that one
// by receiving the next, and that receive is ordered before this push by
// the send that followed it (a receive from a one-slot channel happens
// before the next send completes), so the reuse never races the consumer's
// last read. A batch therefore stays valid until the consumer's next
// receive, and a mailbox in steady state allocates nothing. A batch above
// keepCap is posted but not kept, so its turn to be reused finds none.
type Mailbox[T any] struct {
	mu sync.Mutex
	c  chan []T
	// bufs are the last three batches posted, newest first, nil for one
	// above keepCap: bufs[0] is in c or held by the consumer, and bufs[2]
	// is the next to be reused.
	bufs    [3][]T
	closed  bool
	done    chan struct{}
	batched bool           // Batches claimed the mailbox
	items   chan T         // Items claimed it: forward's channel
	fwd     sync.WaitGroup // forward
}

// NewMailbox returns an open, empty mailbox.
func NewMailbox[T any]() *Mailbox[T] {
	return &Mailbox[T]{c: make(chan []T, 1), done: make(chan struct{})}
}

// Batches claims the mailbox for a consumer of batches and returns its
// channel: each receive yields every item pushed since the previous one,
// in push order. It is closed by Close. A mailbox is consumed in batches
// or one item at a time, fixed by the first claim; Batches panics if Items
// claimed it.
func (m *Mailbox[T]) Batches() <-chan []T {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.items != nil {
		panic("ubq: Batches called on a mailbox consumed via Items")
	}
	m.batched = true
	return m.c
}

// Items claims the mailbox for a consumer of one item at a time: a
// goroutine forwards each batch, item by item, to the channel it returns,
// which closes with the mailbox. It panics if Batches claimed the mailbox.
func (m *Mailbox[T]) Items() <-chan T {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.batched {
		panic("ubq: Items called on a mailbox consumed via Batches")
	}
	switch {
	case m.items != nil:
	case m.closed:
		m.items = make(chan T)
		close(m.items)
	default:
		m.items = make(chan T)
		m.fwd.Add(1)
		go m.forward(m.items)
	}
	return m.items
}

func (m *Mailbox[T]) forward(out chan<- T) {
	defer m.fwd.Done()
	defer close(out)
	for batch := range m.c {
		for _, v := range batch {
			select {
			case out <- v:
			case <-m.done:
				return
			}
		}
	}
}

// Done is closed by the first Close call, for a consumer that must stop
// while it is busy with a batch.
func (m *Mailbox[T]) Done() <-chan struct{} { return m.done }

// Push appends vs, copied, to the pending batch; it is a no-op after Close.
func (m *Mailbox[T]) Push(vs ...T) {
	if len(vs) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	var b []T
	select {
	case b = <-m.c:
	default:
		clear(m.bufs[2])
		b, m.bufs[1], m.bufs[2] = m.bufs[2][:0], m.bufs[0], m.bufs[1]
	}
	b = append(b, vs...)
	if m.bufs[0] = b; cap(b) > keepCap {
		m.bufs[0] = nil
	}
	m.c <- b
}

// Close drops what is pending and closes the consumer's channel
// (crash-stop semantics: a closed endpoint has crashed and receives
// nothing further). Nothing is delivered after Close returns. It is safe
// to call concurrently and repeatedly.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		select {
		case <-m.c:
		default:
		}
		close(m.c)
		close(m.done)
		m.bufs = [3][]T{}
	}
	m.mu.Unlock()
	m.fwd.Wait()
}
