// Package ubq is the one unbounded FIFO of the repository: a queue whose
// pushes never block, pumped into a Go channel. The paper's model places
// all bounded buffering (and hence flow control) in the protocol layer, so
// the transport inboxes, the fault injector's delay links and the failure
// detector's event streams all queue through it and exert no backpressure
// of their own.
package ubq

import "sync"

// BatchCap bounds one batch handed to a Batches consumer. It keeps a
// single receive from monopolising the consumer for unbounded time while
// still amortising the channel operation over a large run.
const BatchCap = 1024

// Consumption modes. A queue is consumed either item-at-a-time (Out) or
// batch-at-a-time (Batches); the first consumer call fixes the mode for
// the queue's lifetime. Mixing the two on one queue would make the order
// between the channels undefined, so it panics.
const (
	unset = iota
	single
	batched
)

// Queue is an unbounded FIFO of T pumped into a channel.
//
// The pump emits either single items (Out) or batches (Batches) depending
// on which accessor was called first. Batches are double-buffered: the
// pump alternates between two reusable slices, so a batch stays valid
// exactly until the consumer's next receive from the same channel.
//
// An item is taken by advancing head and zeroing its slot, so a take is
// O(1) and the backing array pins no delivered item. The live tail slides
// to the front once the taken prefix is at least half the slice, so the
// array only grows while more than half of it is live.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	head   int // items[:head] are taken and zeroed
	closed bool
	mode   int

	out  chan T
	outB chan []T
	done chan struct{}
	wg   sync.WaitGroup
}

// New returns an open queue with its pump running.
func New[T any]() *Queue[T] {
	q := &Queue[T]{
		out:  make(chan T),
		outB: make(chan []T),
		done: make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	q.wg.Add(1)
	go q.pump()
	return q
}

// Push enqueues v; it is a no-op after Close.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, v)
	q.cond.Signal()
}

// PushAll enqueues a run of items under one lock acquisition; the slice
// contents are copied, so the caller may reuse vs immediately.
func (q *Queue[T]) PushAll(vs []T) {
	if len(vs) == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, vs...)
	q.cond.Signal()
}

// Out claims the queue for item-at-a-time consumption and returns its
// receive channel. Panics if the queue is already consumed in batches.
func (q *Queue[T]) Out() <-chan T {
	q.setMode(single, "ubq: Out called on a queue already consumed via Batches")
	return q.out
}

// Batches claims the queue for batch consumption and returns its receive
// channel. Panics if the queue is already consumed item-at-a-time.
func (q *Queue[T]) Batches() <-chan []T {
	q.setMode(batched, "ubq: Batches called on a queue already consumed via Out")
	return q.outB
}

// Done is closed by the first Close call.
func (q *Queue[T]) Done() <-chan struct{} { return q.done }

func (q *Queue[T]) setMode(mode int, msg string) {
	q.mu.Lock()
	if q.mode == unset {
		q.mode = mode
		q.cond.Signal()
	}
	bad := q.mode != mode
	q.mu.Unlock()
	if bad {
		panic(msg)
	}
}

// Close stops the pump; pending items are dropped (crash-stop semantics:
// a closed endpoint has crashed and receives nothing further). It is safe
// to call concurrently and repeatedly; every call returns only once the
// pump has exited, so no item is emitted after Close returns.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.items, q.head = nil, 0
		close(q.done)
		q.cond.Signal()
	}
	q.mu.Unlock()
	q.wg.Wait()
}

// pump waits for the consumption mode to be fixed, then emits until Close.
// Both output channels close on exit, so a consumer holding either sees
// the close however the queue was (or was never) consumed.
func (q *Queue[T]) pump() {
	defer q.wg.Done()
	defer close(q.out)
	defer close(q.outB)
	q.mu.Lock()
	for q.mode == unset && !q.closed {
		q.cond.Wait()
	}
	mode := q.mode
	q.mu.Unlock()
	// The buffer handed to a batch consumer is not touched again until
	// after the consumer's next receive: the Batches ownership contract.
	// Only the batch the consumer holds pins its items.
	var bufs [2][]T
	cur := 0
	for {
		q.mu.Lock()
		for q.head == len(q.items) && !q.closed {
			q.cond.Wait()
		}
		if q.closed {
			q.mu.Unlock()
			return
		}
		if mode == single {
			v := q.items[q.head]
			q.take(1)
			q.mu.Unlock()
			select {
			case q.out <- v:
			case <-q.done:
				return
			}
			continue
		}
		n := min(len(q.items)-q.head, BatchCap)
		batch := append(bufs[cur][:0], q.items[q.head:q.head+n]...)
		bufs[cur] = batch
		q.take(n)
		q.mu.Unlock()
		select {
		case q.outB <- batch:
			// The consumer has let go of the previous batch.
			cur ^= 1
			clear(bufs[cur])
		case <-q.done:
			return
		}
	}
}

// take removes the first n live items, zeroing their slots so the backing
// array does not pin delivered values. Once the taken prefix is at least
// half the slice the live tail slides to the front, so each item is moved
// O(1) times on average.
func (q *Queue[T]) take(n int) {
	clear(q.items[q.head : q.head+n])
	q.head += n
	if 2*q.head >= len(q.items) {
		// head >= live here, so the moved tail does not overlap its copy.
		live := copy(q.items, q.items[q.head:])
		clear(q.items[q.head:])
		q.items, q.head = q.items[:live], 0
	}
}
