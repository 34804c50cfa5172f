package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestInboxBatchDrainsPendingRun pins the core batch-inbox promise: one
// receive yields every envelope pending for the (group, channel) pair, in
// the order they were deposited.
func TestInboxBatchDrainsPendingRun(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register(1)

	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send("b", 1, Data, fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Everything was deposited before the consumer attached: the whole run
	// must arrive as a single batch.
	batch := <-b.InboxBatch(1, Data)
	if len(batch) != n {
		t.Fatalf("first receive yielded %d envelopes, want %d", len(batch), n)
	}
	for i, env := range batch {
		if env.From != "a" || env.Msg != fmt.Sprintf("m%d", i) {
			t.Fatalf("envelope %d = %+v, FIFO order broken", i, env)
		}
	}
}

// TestInboxBatchReuseWindow pins the ownership contract: a received slice
// stays readable until the consumer's next receive from the same channel.
func TestInboxBatchReuseWindow(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register(1)
	in := b.InboxBatch(1, Data)

	next := 0
	for round := 0; round < 8; round++ {
		k := 3 + round
		for i := 0; i < k; i++ {
			if err := a.Send("b", 1, Data, next+i); err != nil {
				t.Fatal(err)
			}
		}
		var got []Envelope
		for len(got) < k {
			batch, ok := <-in
			if !ok {
				t.Fatal("inbox closed early")
			}
			// Read the batch fully before the next receive: that is the
			// window the contract guarantees.
			for _, env := range batch {
				if env.Msg != next+len(got) {
					t.Fatalf("round %d: got %v at position %d, want %d",
						round, env.Msg, len(got), next+len(got))
				}
				got = append(got, env)
			}
		}
		next += k
	}
}

// TestInboxBatchClosesOnEndpointClose pins shutdown: the batch channel
// closes when the endpoint does.
func TestInboxBatchClosesOnEndpointClose(t *testing.T) {
	net := NewMemNetwork()
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	b.Register(1)
	in := b.InboxBatch(1, Data)
	b.Close()
	select {
	case _, ok := <-in:
		if ok {
			t.Fatal("expected closed channel, got a batch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch inbox never closed")
	}
}

// TestInboxModeConflictPanics pins the single-consumer discipline: an
// inbox is consumed envelope-at-a-time or in batches, fixed by the first
// call; mixing the two on one (group, channel) pair is a programming error
// and must fail loudly rather than split the stream.
func TestInboxModeConflictPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic, got none")
				}
			}()
			f()
		})
	}
	expectPanic("single-then-batch", func() {
		net := NewMemNetwork()
		b, err := net.Endpoint("b")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		b.Inbox(1, Data)
		b.InboxBatch(1, Data)
	})
	expectPanic("batch-then-single", func() {
		net := NewMemNetwork()
		b, err := net.Endpoint("b")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		b.InboxBatch(1, Data)
		b.Inbox(1, Data)
	})
}

// TestInboxBatchMixedChannelsIndependent pins that the consumption mode is
// per (group, channel): the same endpoint may consume Data in batches and
// Ctl one at a time.
func TestInboxBatchMixedChannelsIndependent(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register(1)
	dataIn := b.InboxBatch(1, Data)
	ctlIn := b.Inbox(1, Ctl)

	if err := a.Send("b", 1, Data, "d"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", 1, Ctl, "c"); err != nil {
		t.Fatal(err)
	}
	if batch := <-dataIn; len(batch) == 0 || batch[0].Msg != "d" {
		t.Fatalf("data batch = %v", batch)
	}
	if env := <-ctlIn; env.Msg != "c" {
		t.Fatalf("ctl envelope = %v", env)
	}
}

// TestDrainedInboxReturnsBacklogMemory: an inbox does not keep the memory
// of its largest backlog. 200,000 envelopes flood a claimed Data inbox
// whose reader is paused, about 8 MB while they wait; the reader drains
// them, and after a GC the inbox holds less than 0.2 MB more than before
// the flood.
func TestDrainedInboxReturnsBacklogMemory(t *testing.T) {
	const flood, bound = 200_000, 200_000
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Register(1)
	in := b.InboxBatch(1, Data)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < flood; i++ {
		if err := a.Send("b", 1, Data, nil); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < flood; {
		got += len(<-in)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if kept > bound {
		t.Fatalf("the drained inbox keeps %d bytes of a %d-envelope backlog, bound %d", kept, flood, bound)
	}
	t.Logf("kept %d bytes after draining %d envelopes", kept, flood)
}
