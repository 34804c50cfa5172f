package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/codec"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// TestDataBatchMsgRoundTrip pins the wire format of the coalesced data
// envelope.
func TestDataBatchMsgRoundTrip(t *testing.T) {
	in := &DataBatchMsg{Msgs: []DataMsg{
		{View: 3, Meta: obsolete.Msg{Sender: "p0", Seq: 1, Annot: []byte{0x7}}, Payload: []byte("a")},
		{View: 3, Meta: obsolete.Msg{Sender: "p0", Seq: 2}, Payload: nil},
		{View: 3, Meta: obsolete.Msg{Sender: "p0", Seq: 3}, Payload: []byte("ccc")},
	}}
	b, err := codec.Marshal(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	v, err := codec.UnmarshalBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := v.(*DataBatchMsg)
	if !ok {
		t.Fatalf("decoded %T, want *DataBatchMsg", v)
	}
	if len(out.Msgs) != len(in.Msgs) {
		t.Fatalf("decoded %d messages, want %d", len(out.Msgs), len(in.Msgs))
	}
	for i := range in.Msgs {
		if out.Msgs[i].View != in.Msgs[i].View ||
			out.Msgs[i].Meta.Sender != in.Msgs[i].Meta.Sender ||
			out.Msgs[i].Meta.Seq != in.Msgs[i].Meta.Seq ||
			string(out.Msgs[i].Payload) != string(in.Msgs[i].Payload) {
			t.Fatalf("message %d: got %+v, want %+v", i, out.Msgs[i], in.Msgs[i])
		}
	}
}

// TestMulticastBatchDeliversAll drives the batched send API against the
// ordinary single-delivery application drivers and checks the run against
// the SVS oracle: batch submission must be invisible to receivers.
func TestMulticastBatchDeliversAll(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 3, rel: obsolete.KEnumeration{K: 16}})
	tr := obsolete.NewKTracker(16)
	const count = 60
	msgs := make([]OutMsg, 0, count)
	for i := 0; i < count; i++ {
		seq, annot := tr.Next()
		msgs = append(msgs, OutMsg{
			Meta:    obsolete.Msg{Sender: "p0", Seq: seq, Annot: annot},
			Payload: []byte{byte(i)},
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	view, err := h.members["p0"].eng.MulticastBatch(ctx, msgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		h.rec.MulticastRef(m.Meta, view)
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool {
			return hasSeq(log, "p0", count)
		})
	}
	h.verify()
}

// TestMulticastBatchLargerThanCredit is the flow-control regression for
// batched sends: a batch bigger than the sender's remaining window must
// neither overdraw credits (each message is charged individually) nor
// deadlock mid-batch — it parks with its progress recorded and resumes as
// credits flow back.
func TestMulticastBatchLargerThanCredit(t *testing.T) {
	h := newGroup(t, harnessOpts{
		n: 2, rel: obsolete.Empty{}, // no purging: the window really fills
		toDeliverCap: 32, outgoingCap: 4, window: 4,
	})
	consumer := h.members["p1"]
	consumer.mu.Lock()
	consumer.paused = true
	consumer.mu.Unlock()

	// Window 4 + outgoing 4 < 11: the batch must stall on the 9th message.
	const count = 11
	msgs := make([]OutMsg, 0, count)
	for i := 1; i <= count; i++ {
		msgs = append(msgs, OutMsg{
			Meta:    obsolete.Msg{Sender: "p0", Seq: ident.Seq(i)},
			Payload: []byte{byte(i)},
		})
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		view, err := h.members["p0"].eng.MulticastBatch(ctx, msgs)
		if err == nil {
			for _, m := range msgs {
				h.rec.MulticastRef(m.Meta, view)
			}
		}
		done <- err
	}()

	deadline := time.After(15 * time.Second)
	for h.members["p0"].eng.Stats().MulticastParks == 0 {
		select {
		case err := <-done:
			t.Fatalf("batch completed against a stopped consumer (err=%v)", err)
		case <-deadline:
			t.Fatal("oversized batch never parked")
		case <-time.After(time.Millisecond):
		}
	}
	// No overdraw: with the consumer paused only Window messages may be in
	// flight, so its queue holds at most 4 — even though the whole batch
	// was submitted at once.
	if n := consumer.eng.Stats().ToDeliverLen; n > 4 {
		t.Fatalf("receiver holds %d messages, window is 4: batch overdrew credits", n)
	}

	consumer.mu.Lock()
	consumer.paused = false
	consumer.mu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked batch failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("parked batch never resumed after credits flowed back")
	}
	h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", count) })
	h.verify()
}

// ---- differential: batched ≡ single -----------------------------------------

// diffCluster is a driverless 3-member group: deliveries happen only when
// the test pulls them, so queue contents, purges and drains are
// deterministic functions of the submission stream.
type diffCluster struct {
	t    *testing.T
	pids ident.PIDs
	engs map[ident.PID]*Engine
}

func newDiffCluster(t *testing.T, rel obsolete.Relation) *diffCluster {
	t.Helper()
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("p0", "p1", "p2")
	view0 := View{ID: 1, Members: pids}
	c := &diffCluster{t: t, pids: pids, engs: make(map[ident.PID]*Engine)}
	for _, p := range pids {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		eng, err := start(config{
			Self: p, Endpoint: ep, Detector: det,
			// Flow control off, queues unbounded: no parking, no stalls —
			// the outcome depends only on the message stream.
			GroupConfig: GroupConfig{InitialView: view0, Relation: rel},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.engs[p] = eng
		t.Cleanup(func() {
			eng.stop()
			det.Stop()
			ep.Close()
		})
	}
	return c
}

// settle waits until every member's stats snapshot is identical across two
// successive polls: no traffic is in flight anywhere.
func (c *diffCluster) settle() {
	c.t.Helper()
	deadline := time.After(15 * time.Second)
	var prev []Stats
	stable := 0
	for stable < 2 {
		cur := make([]Stats, 0, len(c.pids))
		for _, p := range c.pids {
			cur = append(cur, c.engs[p].Stats())
		}
		same := prev != nil
		for i := range cur {
			if same && cur[i] != prev[i] {
				same = false
			}
		}
		if same {
			stable++
		} else {
			stable = 0
		}
		prev = cur
		select {
		case <-deadline:
			c.t.Fatal("cluster never settled")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// waitView waits for every member to have installed view id.
func (c *diffCluster) waitView(id ident.ViewID) {
	c.t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		ok := true
		for _, p := range c.pids {
			if c.engs[p].Stats().View < id {
				ok = false
			}
		}
		if ok {
			return
		}
		select {
		case <-deadline:
			c.t.Fatalf("view %d never installed everywhere", id)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// deliveryKey flattens one delivery for cross-run comparison.
func deliveryKey(d Delivery) string {
	return fmt.Sprintf("%v|v%d|%s|%d|%x", d.Kind, d.View, d.Meta.Sender, d.Meta.Seq, d.Payload)
}

// diffOutcome is everything the two paths must agree on: the exact
// delivered stream per member, the counters each ended with, and how many
// (message, member) copies were purged or dropped anywhere in the group.
type diffOutcome struct {
	streams map[ident.PID][]string
	decided map[ident.PID]string
	purged  uint64
}

// runDiff submits msgs to p0 — singly or in random batches — with a view
// change between the two halves, settles, then drains every queue (singly
// or in random batches) and snapshots the outcome.
func runDiff(t *testing.T, rel obsolete.Relation, msgs []OutMsg, batched bool, seed int64) diffOutcome {
	t.Helper()
	c := newDiffCluster(t, rel)
	rng := rand.New(rand.NewSource(seed))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	send := func(part []OutMsg) {
		if !batched {
			for _, m := range part {
				if _, err := c.engs["p0"].Multicast(ctx, m.Meta, m.Payload); err != nil {
					t.Fatal(err)
				}
			}
			return
		}
		for len(part) > 0 {
			n := 1 + rng.Intn(6)
			if n > len(part) {
				n = len(part)
			}
			if _, err := c.engs["p0"].MulticastBatch(ctx, part[:n]); err != nil {
				t.Fatal(err)
			}
			part = part[n:]
		}
	}

	half := len(msgs) / 2
	send(msgs[:half])
	c.settle()
	if err := c.engs["p0"].RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	c.waitView(2)
	c.settle()
	send(msgs[half:])
	c.settle()

	out := diffOutcome{
		streams: make(map[ident.PID][]string),
		decided: make(map[ident.PID]string),
	}
	for _, p := range c.pids {
		eng := c.engs[p]
		target := eng.Stats().ToDeliverLen
		var stream []string
		if !batched {
			for len(stream) < target {
				d, err := eng.Deliver(ctx)
				if err != nil {
					t.Fatalf("%s: deliver %d: %v", p, len(stream), err)
				}
				stream = append(stream, deliveryKey(d))
			}
		} else {
			dst := make([]Delivery, 8)
			for len(stream) < target {
				k := 1 + rng.Intn(len(dst))
				if rem := target - len(stream); k > rem {
					k = rem
				}
				n, err := eng.DeliverBatch(ctx, dst[:k])
				if err != nil {
					t.Fatalf("%s: deliver batch at %d: %v", p, len(stream), err)
				}
				for i := 0; i < n; i++ {
					stream = append(stream, deliveryKey(dst[i]))
				}
			}
		}
		out.streams[p] = stream
		st := eng.Stats()
		// The decisions both paths must reproduce bit-for-bit: what was
		// dropped as stale, delivered, flushed, and how far the sender's
		// stream advanced. Where a copy is purged is not one of them — a
		// batch purges its own staged copies at the sender, singles purge
		// them at the receiver — so purges are compared per copy, group-wide.
		out.decided[p] = fmt.Sprintf("stale=%d delivered=%d flush=%d lastSent=%d view=%d",
			st.DroppedStale, st.Delivered, st.FlushAdded, st.LastSent, st.View)
		out.purged += st.PurgedOutgoing + st.PurgedToDeliver + st.DroppedCovered
	}
	return out
}

// genStream builds one deterministic annotated message stream for an
// encoding, shared verbatim by the single and batched runs.
func genStream(t *testing.T, enc string, n int, seed int64) []OutMsg {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	msgs := make([]OutMsg, 0, n)
	ktr := obsolete.NewKTracker(16)
	etr := obsolete.NewEnumTracker(16)
	tags := tagStreams{}
	for i := 1; i <= n; i++ {
		var seq ident.Seq
		var annot []byte
		// Up to two direct predecessors among the recent window.
		var direct []ident.Seq
		for k := rng.Intn(3); k > 0; k-- {
			back := 1 + rng.Intn(8)
			if i-back >= 1 {
				direct = append(direct, ident.Seq(i-back))
			}
		}
		switch enc {
		case "tagging":
			m := tags.next("p0", 1+rng.Uint32()%8)
			seq, annot = m.Seq, m.Annot
		case "enumeration":
			seq, annot = etr.Next(direct...)
		case "k-enumeration":
			seq, annot = ktr.Next(direct...)
		default:
			t.Fatalf("unknown encoding %q", enc)
		}
		msgs = append(msgs, OutMsg{
			Meta:    obsolete.Msg{Sender: "p0", Seq: seq, Annot: annot},
			Payload: []byte{byte(i), byte(i >> 8)},
		})
	}
	return msgs
}

// TestBatchedEquivalentToSingle is the differential test of the batched
// data plane: for every §4.2 relation encoding, purged through the queue's
// listed lookup, a randomized stream submitted through
// MulticastBatch/DeliverBatch must produce exactly the delivery streams and
// view-synchrony outcomes of the same stream pushed one message at a time,
// across a view change in mid-stream, and purge as many (message, member)
// copies — wherever each path purges them. (Nobody consumes while the
// stream is submitted; with a consumer in between, a batch may purge more.)
// A batch drops a staged m2 for m3 before sending it, so receivers holding
// m1 purge it only because m3 lists m1 as well: every encoding's tracker
// folds the closure in.
func TestBatchedEquivalentToSingle(t *testing.T) {
	encodings := []struct {
		name string
		rel  obsolete.Relation
	}{
		{"tagging", tagging},
		{"enumeration", obsolete.Enumeration{}},
		{"k-enumeration", obsolete.KEnumeration{K: 16}},
	}
	const n = 120
	for _, enc := range encodings {
		// The "/listed" suffix names the queue's one purge path.
		t.Run(enc.name+"/listed", func(t *testing.T) {
			msgs := genStream(t, enc.name, n, 42)
			single := runDiff(t, enc.rel, msgs, false, 1337)
			batch := runDiff(t, enc.rel, msgs, true, 1337)
			for _, p := range ident.NewPIDs("p0", "p1", "p2") {
				s, b := single.streams[p], batch.streams[p]
				if len(s) != len(b) {
					t.Fatalf("%s: single delivered %d items, batched %d\nsingle: %v\nbatch:  %v",
						p, len(s), len(b), s, b)
				}
				for i := range s {
					if s[i] != b[i] {
						t.Fatalf("%s: delivery %d differs\nsingle: %s\nbatch:  %s", p, i, s[i], b[i])
					}
				}
				if single.decided[p] != batch.decided[p] {
					t.Fatalf("%s: decisions diverge\nsingle: %s\nbatch:  %s",
						p, single.decided[p], batch.decided[p])
				}
			}
			if single.purged != batch.purged {
				t.Fatalf("copies purged: single %d, batched %d", single.purged, batch.purged)
			}
		})
	}
}

// TestPayloadIsAliasedNotCopied pins the ownership rule of Multicast and
// MulticastBatch: payload bytes are given to the group and travel without
// a copy — over memnet the receiver delivers the very memory the sender
// submitted. That is why a caller must never write to them again, and it
// is what a defensive copy (one allocation per message) would break.
func TestPayloadIsAliasedNotCopied(t *testing.T) {
	pids := ident.NewPIDs("n0", "n1")
	groups := createEverywhere(t, memNodes(t, pids), pids, 1, GroupConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	single, batched := []byte("single"), []byte("batched")
	if _, err := groups["n0"].Multicast(ctx, obsolete.Msg{Sender: "n0", Seq: 1}, single); err != nil {
		t.Fatal(err)
	}
	if _, err := groups["n0"].MulticastBatch(ctx, []OutMsg{{Meta: obsolete.Msg{Sender: "n0", Seq: 2}, Payload: batched}}); err != nil {
		t.Fatal(err)
	}
	for _, p := range pids {
		for _, want := range [][]byte{single, batched} {
			d, err := groups[p].Deliver(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if string(d.Payload) != string(want) || &d.Payload[0] != &want[0] {
				t.Errorf("%s delivered %q in memory of its own, want the submitted %q itself", p, d.Payload, want)
			}
		}
	}
}
