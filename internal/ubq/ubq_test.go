package ubq

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestUBQConcurrentClose(t *testing.T) {
	m := NewMailbox[string]()
	m.Push("x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Close()
		}()
	}
	wg.Wait()
	// Close dropped the pending batch before closing the channel: the
	// first receive sees the close.
	select {
	case _, ok := <-m.Batches():
		if ok {
			t.Fatal("batch delivered after close returned")
		}
	default:
		t.Fatal("channel not closed after close returned")
	}
	m.Push("y") // must be a no-op, not a panic
}

// TestPushBacklogIsLinear: a push onto a pending batch appends in place,
// so a backlog builds in time linear in its length; a push that copied the
// pending batch would take minutes for 100k items.
func TestPushBacklogIsLinear(t *testing.T) {
	const n = 100_000
	m := NewMailbox[int]()
	defer m.Close()
	start := time.Now()
	for i := 0; i < n; i++ {
		m.Push(i)
	}
	b := <-m.Batches()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("building a backlog of %d items took %v, want well under 2s", n, d)
	}
	if len(b) != n {
		t.Fatalf("one receive yielded %d items, want all %d", len(b), n)
	}
	for i, v := range b {
		if v != i {
			t.Fatalf("item %d: got %d", i, v)
		}
	}
}

// TestBatchesFIFO: with producers racing each other and the consumer,
// batches arrive in each producer's push order, and the items of a batch
// stay intact until the next receive.
func TestBatchesFIFO(t *testing.T) {
	const producers, n = 3, 100_000
	m := NewMailbox[[2]int]()
	defer m.Close()
	for p := 0; p < producers; p++ {
		go func(p int) {
			for i := 0; i < n; i += 2 {
				m.Push([2]int{p, i}, [2]int{p, i + 1})
			}
		}(p)
	}
	var next [producers]int
	got := 0
	for b := range m.Batches() {
		first := slices.Clone(b)
		for _, v := range b {
			if p, i := v[0], v[1]; i != next[p] {
				t.Fatalf("producer %d: got %d, want %d", p, i, next[p])
			}
			next[v[0]]++
		}
		if !slices.Equal(b, first) {
			t.Fatal("batch rewritten before the next receive")
		}
		if got += len(b); got == producers*n {
			return
		}
	}
}

// TestBatchesReclaimBound: with a producer kept k items ahead of the
// consumer for many rounds, each receive yields the k items and no batch
// grows beyond 2k; once the mailbox has drained, it keeps no buffer above
// keepCap.
func TestBatchesReclaimBound(t *testing.T) {
	for _, k := range []int{1, 100, keepCap, 4 * keepCap} {
		m := NewMailbox[int]()
		pushed, received, maxCap := 0, 0, 0
		for round := 0; round < 500; round++ {
			for ; pushed-received < k; pushed++ {
				m.Push(pushed)
			}
			b := <-m.Batches()
			if len(b) != k {
				t.Fatalf("k=%d: a receive yielded %d items", k, len(b))
			}
			for _, v := range b {
				if v != received {
					t.Fatalf("k=%d: got %d, want %d", k, v, received)
				}
				received++
			}
			maxCap = max(maxCap, cap(b), m.buffers())
		}
		if bound := 2 * k; maxCap > bound {
			t.Errorf("k=%d: a buffer grew to %d, bound %d", k, maxCap, bound)
		}
		if c := m.buffers(); c > keepCap {
			t.Errorf("k=%d: a drained mailbox keeps a buffer of %d, keepCap %d", k, c, keepCap)
		}
		m.Close()
	}
}

// TestDrainPinsNothing: once every item of a backlog larger than keepCap
// has been delivered, in batches or one at a time, no slot of the mailbox
// keeps an item alive.
func TestDrainPinsNothing(t *testing.T) {
	const n = 3000
	for _, batched := range []bool{false, true} {
		m := NewMailbox[*int]()
		for i := 0; i < n; i++ {
			v := i
			m.Push(&v)
		}
		got := 0
		if batched {
			for b := range m.Batches() {
				if got += len(b); got == n {
					break
				}
			}
		} else {
			for out := m.Items(); got < n; got++ {
				<-out
			}
		}
		m.mu.Lock()
		for _, buf := range m.bufs {
			for i, p := range buf[:cap(buf)] {
				if p != nil {
					t.Errorf("batched=%v: slot %d still pins %d", batched, i, *p)
					break
				}
			}
		}
		m.mu.Unlock()
		m.Close()
	}
}

// TestReusedBufferIsCleared: a buffer is cleared before it is reused, so
// a batch posted in a buffer that a larger one used before keeps none of
// the larger one's items alive.
func TestReusedBufferIsCleared(t *testing.T) {
	m := NewMailbox[*int]()
	defer m.Close()
	for i := 0; i < 100; i++ {
		v := i
		m.Push(&v)
	}
	<-m.Batches()
	// Three one-item batches: the third is posted in the 100-item buffer.
	var last [3]*int
	for i := range last {
		last[i] = new(int)
		m.Push(last[i])
		<-m.Batches()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cap(m.bufs[0]) < 100 {
		t.Fatalf("the last batch has capacity %d: the 100-item buffer was not reused", cap(m.bufs[0]))
	}
	for _, buf := range m.bufs {
		for i, p := range buf[:cap(buf)] {
			if p != nil && !slices.Contains(last[:], p) {
				t.Fatalf("slot %d still pins %d", i, *p)
			}
		}
	}
}

// buffers is the largest capacity of the mailbox's buffers.
func (m *Mailbox[T]) buffers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return max(cap(m.bufs[0]), cap(m.bufs[1]), cap(m.bufs[2]))
}
