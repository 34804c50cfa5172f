package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

func TestFlowDisabledUnboundedNeverParks(t *testing.T) {
	// Window 0 disables credit flow control entirely; with unbounded
	// queues multicasts never park.
	h := newGroup(t, harnessOpts{n: 3, rel: tagging})
	for i := 1; i <= 100; i++ {
		h.update("p0", uint32(1+i%5))
	}
	if st := h.members["p0"].eng.Stats(); st.MulticastParks != 0 {
		t.Fatalf("parks = %d with flow control disabled", st.MulticastParks)
	}
	h.verify()
}

// flowEngine is a hand-built engine "me" whose view has the one other
// member "peer", armed with the given window.
func flowEngine(cfg config) (*Engine, *peer) {
	cfg.Self, cfg.Relation = "me", obsolete.Empty{}
	cfg.InitialView = View{ID: 3, Members: ident.NewPIDs("me", "peer")}
	e := &Engine{cfg: cfg}
	e.vc = newViewState(&e.cfg, cfg.InitialView, e.cfg.Endpoint)
	return e, e.vc.others[0]
}

func TestPeerCredits(t *testing.T) {
	e, p := flowEngine(config{GroupConfig: GroupConfig{Window: 4, OutgoingCap: 8}})
	if p.out == nil || len(e.vc.peers) != 2 {
		t.Fatalf("window 4 should arm an outgoing queue for the one peer, beside our own record: %+v", e.vc.peers)
	}
	for i := 0; i < 4; i++ {
		if !p.hasCredit() || !p.takeCredit() {
			t.Fatalf("credit %d unavailable", i)
		}
	}
	if p.hasCredit() || p.takeCredit() {
		t.Fatal("credit available past the window")
	}
	p.credit(2)
	if !p.takeCredit() || !p.takeCredit() || p.takeCredit() {
		t.Fatal("granted credits miscounted")
	}
	// Negative and zero grants are ignored.
	p.credit(0)
	p.credit(-5)
	if p.hasCredit() {
		t.Fatal("non-positive grant added credit")
	}
	// The next view re-arms the full window, on the same record.
	e.vc.armPeers()
	if e.vc.others[0] != p {
		t.Fatal("re-arming replaced the peer's record")
	}
	for i := 0; i < 4; i++ {
		if !p.takeCredit() {
			t.Fatalf("credit %d unavailable after re-arming", i)
		}
	}
}

// TestPeerGrantsInBatches pins the receiver-side ledger: freed slots are
// granted a quarter window at a time, except to a sender known to have used
// up everything it was granted.
func TestPeerGrantsInBatches(t *testing.T) {
	_, p := flowEngine(config{GroupConfig: GroupConfig{Window: 8}})
	for i := 0; i < 3; i++ {
		p.received()
	}
	if n := p.freed(); n != 0 {
		t.Fatalf("first freed slot granted %d at once, want batching", n)
	}
	if n := p.freed(); n != 2 || p.owed != 0 || p.granted != 10 {
		t.Fatalf("second freed slot granted %d (owed %d, granted %d), want the batch of 2", n, p.owed, p.granted)
	}
	for p.used < p.granted {
		p.received()
	}
	if n := p.freed(); n != 1 {
		t.Fatalf("slot freed for a blocked sender granted %d, want 1 immediately", n)
	}
}

// TestPeerGrantsOwedWhenBlocked: at window 8, seven arrivals and one
// delivery leave one slot owed — below the batch of 2 — to a sender that
// still holds a credit. The eighth arrival spends that credit: the sender is
// now known blocked and can send nothing that would free another slot, so
// what is owed is granted with that arrival, or never.
func TestPeerGrantsOwedWhenBlocked(t *testing.T) {
	_, p := flowEngine(config{GroupConfig: GroupConfig{Window: 8}})
	for i := 0; i < 7; i++ {
		p.received()
	}
	if n := p.freed(); n != 0 {
		t.Fatalf("a lone freed slot granted %d to a sender holding a credit, want it batched", n)
	}
	p.received()
	if p.owed != 0 || p.granted != 9 {
		t.Fatalf("after the arrival that blocks the sender: owed %d, granted %d; want 0 and 9", p.owed, p.granted)
	}
}

func TestPeerCreditsDisabled(t *testing.T) {
	_, p := flowEngine(config{})
	for i := 0; i < 1000; i++ {
		if !p.hasCredit() || !p.takeCredit() {
			t.Fatal("disabled flow control must never refuse")
		}
	}
	p.received()
	if p.out != nil || p.freed() != 0 || p.used != 0 {
		t.Fatal("disabled flow control must have no outgoing queue and keep no ledger")
	}
}

// TestCreditGrantClampedAtWindow: a member that grants more credits than
// the window — buggy or hostile — cannot make this sender send past it. The
// grant lifts the credits to the window and no further, and is counted.
func TestCreditGrantClampedAtWindow(t *testing.T) {
	const window = 8
	e, p := flowEngine(config{GroupConfig: GroupConfig{Window: window, OutgoingCap: window}})
	grant := func(n int) {
		input(e, event{from: p.id, msg: CreditMsg{View: e.vc.cv.ID, Epoch: e.vc.cv.Epoch, Credits: n}})
	}
	for i := 0; i < 3; i++ {
		p.takeCredit()
	}
	grant(1 << 30)
	if p.avail != window || e.vc.stats.CreditsExcess != 1 {
		t.Fatalf("after a grant of 2^30: %d credits held, CreditsExcess %d; want the window %d and 1",
			p.avail, e.vc.stats.CreditsExcess, window)
	}
	// An honest grant gives back what was taken, and is not counted.
	for i := 0; i < 3; i++ {
		p.takeCredit()
	}
	grant(3)
	if p.avail != window || e.vc.stats.CreditsExcess != 1 {
		t.Fatalf("after an honest grant: %d credits held, CreditsExcess %d; want %d and 1",
			p.avail, e.vc.stats.CreditsExcess, window)
	}
}

// TestDrainOutgoingNeverDropsWithoutCredit pins the drain loop's
// pop/credit ordering: a queued message may only leave the outgoing queue
// when its send is paid for. The old loop popped first and dropped the
// message if the credit check then failed.
func TestDrainOutgoingNeverDropsWithoutCredit(t *testing.T) {
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("me")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	pep, err := net.Endpoint("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer pep.Close()
	inbox := pep.Inbox(0, transport.Data)

	e, p := flowEngine(config{Endpoint: ep, GroupConfig: GroupConfig{Window: 4}})
	out := p.out
	// One stale leftover from view 2, then five live messages.
	out.ForceAppend(queue.Item{Kind: queue.Data, View: 2, Meta: obsolete.Msg{Sender: "me", Seq: 90}})
	for i := 1; i <= 5; i++ {
		out.ForceAppend(queue.Item{Kind: queue.Data, View: 3, Meta: obsolete.Msg{Sender: "me", Seq: ident.Seq(i)}})
	}
	// Exhaust all but one credit: the drain may send exactly one message,
	// skip the stale head for free, and must keep the rest queued.
	for i := 0; i < 3; i++ {
		p.takeCredit()
	}
	recv := func() []ident.Seq {
		var got []ident.Seq
		for {
			select {
			case env := <-inbox:
				switch m := env.Msg.(type) {
				case DataMsg:
					got = append(got, m.Meta.Seq)
				case *DataBatchMsg:
					for _, dm := range m.Msgs {
						got = append(got, dm.Meta.Seq)
					}
				default:
					t.Fatalf("unexpected data-channel message %T", env.Msg)
				}
			case <-time.After(50 * time.Millisecond):
				return got
			}
		}
	}

	e.vc.drainOutgoing(p)
	if got := recv(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("first drain sent %v, want [1]", got)
	}
	if out.Len() != 4 {
		t.Fatalf("outgoing holds %d after credit exhaustion, want 4 (nothing dropped)", out.Len())
	}
	// Each granted credit releases exactly the next message, in order.
	p.credit(2)
	e.vc.drainOutgoing(p)
	if got := recv(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("second drain sent %v, want [2 3]", got)
	}
	p.credit(10)
	e.vc.drainOutgoing(p)
	if got := recv(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("final drain sent %v, want [4 5]", got)
	}
	if out.Len() != 0 {
		t.Fatalf("outgoing not drained: %d left", out.Len())
	}
}

// TestOwedCreditsFlushWhenSenderBlocked pins the quiescence stall: with
// Window 8 the receiver grants credits in batches of 2, so a single freed
// slot used to sit in `owed` forever if no further traffic arrived —
// leaving the sender parked until an unrelated view change. Now a freed
// slot is granted immediately once the sender is known to have consumed
// its whole window.
func TestOwedCreditsFlushWhenSenderBlocked(t *testing.T) {
	h := newGroup(t, harnessOpts{
		n: 2, rel: obsolete.Empty{}, // no purging: the window really fills
		toDeliverCap: 16, outgoingCap: 4, window: 8,
	})
	consumer := h.members["p1"]
	consumer.mu.Lock()
	consumer.paused = true
	consumer.mu.Unlock()

	// 8 sends exhaust the window, 4 more fill the outgoing queue.
	for i := 1; i <= 12; i++ {
		if err := h.multicast("p0", ident.Seq(i), nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The 13th has nowhere to go: it parks.
	parked := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := h.members["p0"].eng.Multicast(ctx, obsolete.Msg{Sender: "p0", Seq: 13}, []byte{13})
		parked <- err
	}()
	deadline := time.After(15 * time.Second)
	for h.members["p0"].eng.Stats().MulticastParks == 0 {
		select {
		case <-deadline:
			t.Fatal("producer never parked")
		case <-time.After(time.Millisecond):
		}
	}

	// The paused consumer's application pulls exactly ONE delivery. That
	// frees one slot — below the batch threshold of 2 — and traffic then
	// quiesces. The single owed credit must still reach the sender and
	// release the parked multicast.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	d, err := consumer.eng.Deliver(ctx)
	if err != nil || d.Kind != DeliverData {
		t.Fatalf("manual deliver = %+v, %v", d, err)
	}
	h.rec.Deliver("p1", d.Meta, d.View)

	select {
	case err := <-parked:
		if err != nil {
			t.Fatalf("released multicast failed: %v", err)
		}
		h.rec.Multicast(obsolete.Msg{Sender: "p0", Seq: 13}, 1)
	case <-time.After(15 * time.Second):
		t.Fatal("owed credit never flushed: sender still parked after the receiver freed a slot")
	}

	// Drain the rest and verify the run.
	consumer.mu.Lock()
	consumer.paused = false
	consumer.mu.Unlock()
	h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", 13) })
	h.verify()
}

// TestStaleViewCreditRejected pins the view check on credit grants: a
// credit from another view must not inflate the sender's window.
func TestStaleViewCreditRejected(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 2, rel: obsolete.Empty{}, toDeliverCap: 8, outgoingCap: 1, window: 1})
	consumer := h.members["p1"]
	consumer.mu.Lock()
	consumer.paused = true
	consumer.mu.Unlock()

	// Window 1: the first multicast consumes the only credit, the second
	// queues, the third parks.
	for i := 1; i <= 2; i++ {
		if err := h.multicast("p0", ident.Seq(i), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := h.members["p0"].eng.Multicast(ctx, obsolete.Msg{Sender: "p0", Seq: 3}, nil); err == nil {
			h.rec.Multicast(obsolete.Msg{Sender: "p0", Seq: 3}, 1)
		}
	}()
	deadline := time.After(15 * time.Second)
	for h.members["p0"].eng.Stats().MulticastParks == 0 {
		select {
		case <-deadline:
			t.Fatal("producer never parked")
		case <-time.After(time.Millisecond):
		}
	}

	// A forged credit grant for a view p0 is not in arrives. It must be
	// discarded (counted), leaving the producer parked.
	if err := consumer.ep.Send("p0", 0, transport.Ctl, CreditMsg{View: 99, Credits: 1000}); err != nil {
		t.Fatal(err)
	}
	deadline = time.After(15 * time.Second)
	for h.members["p0"].eng.Stats().CreditsStaleView == 0 {
		select {
		case <-deadline:
			t.Fatal("stale credit never counted")
		case <-time.After(time.Millisecond):
		}
	}
	if st := h.members["p0"].eng.Stats(); st.MulticastParks == 0 {
		t.Fatalf("producer unexpectedly unparked: %+v", st)
	}

	// Real progress still works once the consumer resumes.
	consumer.mu.Lock()
	consumer.paused = false
	consumer.mu.Unlock()
	h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", 3) })
	h.verify()
}

// TestDeferredCtlOverflowCounted pins the maxDeferredCtl backstop: control
// envelopes for the next view past the cap are dropped, and the drop is
// visible in Stats rather than silent. It is the arriving envelope that goes,
// never a stashed one: the first thing stashed here is p1's INIT for view 2
// (p1 installed it ahead of p0 and went on), and once p0 installs view 2
// the replay must still find it and take the group to view 3.
func TestDeferredCtlOverflowCounted(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 2, rel: obsolete.Empty{}})
	evil, err := h.net.Endpoint("evil")
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()

	if err := h.members["p1"].ep.Send("p0", 0, transport.Ctl, InitMsg{View: View{ID: 2}}); err != nil {
		t.Fatal(err)
	}
	const extra = 7
	for i := 1; i < maxDeferredCtl+extra; i++ {
		if err := evil.Send("p0", 0, transport.Ctl, InitMsg{View: View{ID: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(15 * time.Second)
	for h.members["p0"].eng.Stats().CtlDeferredDropped != extra {
		select {
		case <-deadline:
			t.Fatalf("CtlDeferredDropped = %d, want %d",
				h.members["p0"].eng.Stats().CtlDeferredDropped, extra)
		case <-time.After(2 * time.Millisecond):
		}
	}

	if err := h.members["p0"].eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.pids {
		h.waitView(p, 3)
	}
}

func TestBlockedProducerUnblocksWhenConsumerResumes(t *testing.T) {
	// A paused consumer exhausts the producer's window; resuming it must
	// release the parked multicast (the engine-level analogue of the
	// perturbation experiment, Fig. 5b).
	h := newGroup(t, harnessOpts{
		n: 2, rel: obsolete.Empty{}, // no purging: pressure builds
		toDeliverCap: 4, outgoingCap: 4, window: 4,
	})
	// Pause p1's application entirely.
	m := h.members["p1"]
	m.mu.Lock()
	m.paused = true
	m.mu.Unlock()

	// Fill far beyond window+buffer: the producer must eventually park.
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= 40; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_, err := h.members["p0"].eng.Multicast(ctx,
				obsolete.Msg{Sender: "p0", Seq: ident.Seq(i)}, []byte{byte(i)})
			cancel()
			if err != nil {
				done <- err
				return
			}
			h.rec.Multicast(obsolete.Msg{Sender: "p0", Seq: ident.Seq(i)}, 1)
		}
		done <- nil
	}()

	// The producer must be stuck while p1 naps...
	select {
	case err := <-done:
		t.Fatalf("producer finished against a stopped consumer: %v", err)
	case <-time.After(300 * time.Millisecond):
	}
	if st := h.members["p0"].eng.Stats(); st.MulticastParks == 0 {
		t.Fatal("producer never parked against a stopped consumer")
	}

	// ... and released once it wakes up.
	m.mu.Lock()
	m.paused = false
	m.mu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("producer never unblocked after consumer resumed")
	}
	h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", 40) })
	h.verify()
}
