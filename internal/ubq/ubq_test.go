package ubq

import (
	"sync"
	"testing"
	"time"
)

func TestUBQConcurrentClose(t *testing.T) {
	q := New[string]()
	q.Push("x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Close()
		}()
	}
	wg.Wait()
	// Every close call returned only after the pump exited: the out
	// channel must already be closed.
	select {
	case _, ok := <-q.out:
		if ok {
			t.Fatal("envelope emitted after close returned")
		}
	default:
		t.Fatal("out channel not closed after close returned")
	}
	q.Push("y") // must be a no-op, not a panic
}

// TestOutDrainIsLinear: taking an item costs O(1), so a backlog drains in
// time linear in its length; an O(n) take drains 100k items in seconds.
func TestOutDrainIsLinear(t *testing.T) {
	const n = 100_000
	q := New[int]()
	defer q.Close()
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	start := time.Now()
	out := q.Out()
	for i := 0; i < n; i++ {
		if v := <-out; v != i {
			t.Fatalf("item %d: got %d", i, v)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("draining %d items took %v, want well under 2s", n, d)
	}
}

// TestBatchesFIFOAndCap: batches arrive in push order, none longer than
// BatchCap.
func TestBatchesFIFOAndCap(t *testing.T) {
	const n = 3*BatchCap + 7
	q := New[int]()
	defer q.Close()
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i
	}
	q.PushAll(vs)
	next := 0
	for b := range q.Batches() {
		if len(b) > BatchCap {
			t.Fatalf("batch of %d items, cap %d", len(b), BatchCap)
		}
		for _, v := range b {
			if v != next {
				t.Fatalf("got %d, want %d", v, next)
			}
			next++
		}
		if next == n {
			return
		}
	}
}

// TestBatchesReclaimBound: with a producer kept k items ahead of a batch
// consumer for many rounds, the backing array stays within
// 2·(k + BatchCap) — the taken prefix is reclaimed, not accumulated.
func TestBatchesReclaimBound(t *testing.T) {
	for _, k := range []int{1, 100, BatchCap, 2 * BatchCap} {
		q := New[int]()
		in := q.Batches()
		pushed, received, maxCap := 0, 0, 0
		for round := 0; round < 500; round++ {
			for ; pushed-received < k; pushed++ {
				q.Push(pushed)
			}
			b := <-in
			for _, v := range b {
				if v != received {
					t.Fatalf("k=%d: got %d, want %d", k, v, received)
				}
				received++
			}
			q.mu.Lock()
			maxCap = max(maxCap, cap(q.items))
			q.mu.Unlock()
		}
		q.Close()
		if bound := 2 * (k + BatchCap); maxCap > bound {
			t.Errorf("k=%d: backing array grew to %d, bound %d", k, maxCap, bound)
		}
	}
}

// TestDrainPinsNothing: once every item has been delivered the queue
// holds none, so no slot of the backing array keeps a payload alive.
func TestDrainPinsNothing(t *testing.T) {
	const n = 3000
	for _, batched := range []bool{false, true} {
		q := New[*int]()
		for i := 0; i < n; i++ {
			v := i
			q.Push(&v)
		}
		got := 0
		if batched {
			for b := range q.Batches() {
				if got += len(b); got == n {
					break
				}
			}
		} else {
			for out := q.Out(); got < n; got++ {
				<-out
			}
		}
		// The pump takes an item before handing it over, so after the last
		// receive the queue is already empty.
		q.mu.Lock()
		live := len(q.items) - q.head
		for i, p := range q.items[:cap(q.items)] {
			if p != nil {
				t.Errorf("batched=%v: slot %d still pins %d", batched, i, *p)
				break
			}
		}
		q.mu.Unlock()
		if live != 0 {
			t.Errorf("batched=%v: %d items left after a full drain", batched, live)
		}
		q.Close()
	}
}
