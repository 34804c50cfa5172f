package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

// A batch is one transaction from MulticastBatch to DeliverBatch: it is
// purged against itself in the delivery queue and in the stage before
// anything is delivered or sent. These tests pin the three places that
// makes a difference.

// TestBatchPurgedBeforeDelivery parks a DeliverBatch on the empty queue of
// the sender and of a remote member, then multicasts [u1(x), u2(x), c(y)] as
// one batch: each waiter gets one reply, [u2, c]. Served per message, the
// waiter would take u1 alone before u2 had been looked at.
func TestBatchPurgedBeforeDelivery(t *testing.T) {
	c := newDiffCluster(t, tagging)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	// Requests reach the loop in submission order, so a deliver request
	// put on reqC is parked before anything submitted after it is looked
	// at; at the remote member a multicast the loop refuses (bad sequence
	// number) is the barrier that says the loop has been through reqC.
	type waiter struct {
		req *request
		dst []Delivery
	}
	var waiters []waiter
	for _, p := range []ident.PID{"p0", "p1"} {
		w := waiter{req: getRequest(reqDeliver, ctx), dst: make([]Delivery, 8)}
		w.req.dst = w.dst
		c.engs[p].reqC <- w.req
		waiters = append(waiters, w)
	}
	if _, err := c.engs["p1"].Multicast(ctx, obsolete.Msg{Sender: "p1", Seq: 99}, nil); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("barrier multicast: %v, want ErrBadSeq", err)
	}

	const x, y = 1, 2
	tags := tagStreams{}
	batch := []OutMsg{
		{Meta: tags.next("p0", x), Payload: []byte("u1")},
		{Meta: tags.next("p0", x), Payload: []byte("u2")},
		{Meta: tags.next("p0", y), Payload: []byte("c")},
	}
	if _, err := c.engs["p0"].MulticastBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	for i, w := range waiters {
		var res result
		select {
		case res = <-w.req.resC:
		case <-ctx.Done():
			t.Fatalf("waiter %d never served", i)
		}
		var got []string
		for _, d := range w.dst[:res.n] {
			got = append(got, string(d.Payload))
		}
		if res.err != nil || fmt.Sprint(got) != "[u2 c]" {
			t.Fatalf("waiter at p%d got %v (%v), want one reply [u2 c]", i, got, res.err)
		}
	}
	c.settle()
	// u1 never left p0: its staged copies were purged, one per peer, and no
	// member had anything left to purge.
	if st := c.engs["p0"].Stats(); st.PurgedOutgoing != 2 || st.PurgedToDeliver != 1 {
		t.Fatalf("p0 purged outgoing=%d toDeliver=%d, want 2 and 1", st.PurgedOutgoing, st.PurgedToDeliver)
	}
	for _, p := range []ident.PID{"p1", "p2"} {
		if st := c.engs[p].Stats(); st.PurgedToDeliver != 0 || st.DroppedCovered != 0 {
			t.Fatalf("%s purged %d and dropped %d copies that should never have arrived", p, st.PurgedToDeliver, st.DroppedCovered)
		}
	}
}

// sendLog is the endpoint of a hand-built, never-started engine: it records
// the data messages handed to Send, in order, and each data envelope by
// destination; nothing else is called. With discard set it records nothing.
type sendLog struct {
	transport.Endpoint
	data    []DataMsg
	envs    map[ident.PID][]any
	discard bool
}

func (s *sendLog) Send(to ident.PID, _ ident.GroupID, ch transport.Channel, m any) error {
	if s.discard || ch != transport.Data {
		return nil
	}
	if s.envs == nil {
		s.envs = make(map[ident.PID][]any)
	}
	s.envs[to] = append(s.envs[to], m)
	switch m := m.(type) {
	case DataMsg:
		s.data = append(s.data, m)
	case *DataBatchMsg:
		s.data = append(s.data, m.Msgs...)
	}
	return nil
}

// txnEngine is a hand-built engine "me" in a view with the given peers
// ("peer" if none), driven by calling the loop's handlers directly.
func txnEngine(rel obsolete.Relation, window, outCap, deliverCap int, peers ...ident.PID) (*Engine, *sendLog) {
	if len(peers) == 0 {
		peers = []ident.PID{"peer"}
	}
	log := &sendLog{}
	cfg := config{Self: "me", Endpoint: log, GroupConfig: GroupConfig{Relation: rel, Window: window, OutgoingCap: outCap, ToDeliverCap: deliverCap}}
	e := &Engine{cfg: cfg}
	e.vc = newViewState(&e.cfg, View{ID: 1, Members: ident.NewPIDs(append([]ident.PID{"me"}, peers...)...)}, e.cfg.Endpoint)
	return e, log
}

// TestStagePurgeRefundsCredit drives more than four windows of messages
// through a window of 4 in batches that obsolete most of themselves. A copy
// purged in the stage gives its credit back at the flush, so after every
// flush the credits held plus the copies in flight make up the window, the
// peer sees the sender's stream in order and is never sent a copy that a
// later message of the same envelope obsoletes, every copy is either sent or
// counted in PurgedOutgoing, and no batch parks for good.
func TestStagePurgeRefundsCredit(t *testing.T) {
	const window, perBatch, batches = 4, 6, 8
	e, log := txnEngine(tagging, window, window, 0)
	peer := e.vc.others[0]
	rng := rand.New(rand.NewSource(3))
	tags, seq, inFlight := tagStreams{}, ident.Seq(0), 0
	for b := 0; b < batches; b++ {
		req := &request{kind: reqMulticast}
		for i := 0; i < perBatch; i++ {
			m := tags.next("me", uint32(1+rng.Intn(2)))
			seq = m.Seq
			req.batch = append(req.batch, OutMsg{Meta: m})
		}
		for try := 0; ; try++ {
			sent := len(log.data)
			done := e.vc.advance(req) // ends in a flush, committed or not
			inFlight += len(log.data) - sent
			for i, old := range log.data[sent:] {
				for _, later := range log.data[sent+i+1:] {
					if e.cfg.Relation.Obsoletes(old.Meta, later.Meta) {
						t.Fatalf("batch %d: sent %d together with %d, which obsoletes it", b, old.Meta.Seq, later.Meta.Seq)
					}
				}
			}
			if got := peer.avail + inFlight; got != window {
				t.Fatalf("batch %d: %d credits held + %d copies in flight = %d, want the window %d",
					b, peer.avail, inFlight, got, window)
			}
			if done {
				break
			}
			if try == perBatch {
				t.Fatalf("batch %d parked for good at message %d", b, req.done)
			}
			// The peer consumes what is in flight and grants it back, as a
			// CreditMsg would.
			sent = len(log.data)
			peer.credit(inFlight)
			inFlight = 0
			e.vc.drainOutgoing(peer)
			inFlight += len(log.data) - sent
		}
		// The delivery queue is unbounded and nobody delivers: keep only
		// the transaction under test in it.
		for e.vc.toDeliver.Len() > 0 {
			e.vc.toDeliver.PopHead()
		}
	}
	for i := 1; i < len(log.data); i++ {
		if log.data[i].Meta.Seq <= log.data[i-1].Meta.Seq {
			t.Fatalf("peer was sent %d after %d", log.data[i].Meta.Seq, log.data[i-1].Meta.Seq)
		}
	}
	queued := peer.out.Len()
	if got := uint64(len(log.data)+queued) + e.vc.stats.PurgedOutgoing; got != uint64(seq) {
		t.Fatalf("%d sent + %d queued + %d purged outgoing = %d, want every one of %d copies",
			len(log.data), queued, e.vc.stats.PurgedOutgoing, got, seq)
	}
	if e.vc.stats.PurgedOutgoing < batches {
		t.Fatalf("PurgedOutgoing = %d: the self-obsoleting batches dropped nothing", e.vc.stats.PurgedOutgoing)
	}
}

// TestFullQueueServedMidTurn: deliveries are served when the turn ends,
// except that a full delivery queue with a waiter parked on it is served on
// the spot — so a batch larger than the queue commits, and a batched arrival
// larger than the queue is accepted, without parking or stalling.
func TestFullQueueServedMidTurn(t *testing.T) {
	const capacity = 4
	park := func(e *Engine) *request {
		w := &request{kind: reqDeliver, dst: make([]Delivery, 2*capacity)}
		e.vc.deliverWaiters = append(e.vc.deliverWaiters, w)
		return w
	}
	served := func(w *request) []ident.Seq {
		var out []ident.Seq
		for _, d := range w.dst[:w.res.n] {
			out = append(out, d.Meta.Seq)
		}
		return out
	}

	e, _ := txnEngine(obsolete.Empty{}, 0, 0, capacity)
	w := park(e)
	req := &request{kind: reqMulticast}
	for s := ident.Seq(1); s <= capacity+2; s++ {
		req.batch = append(req.batch, OutMsg{Meta: obsolete.Msg{Seq: s}})
	}
	if !e.vc.advance(req) {
		t.Fatalf("batch parked at message %d with a waiter on the full queue", req.done)
	}
	if got := served(w); fmt.Sprint(got) != "[1 2 3 4]" || e.vc.toDeliver.Len() != 2 {
		t.Fatalf("waiter got %v and %d stay queued, want [1 2 3 4] and 2", got, e.vc.toDeliver.Len())
	}

	e, _ = txnEngine(obsolete.Empty{}, 0, 0, capacity)
	w = park(e)
	var run []DataMsg
	for s := ident.Seq(1); s <= capacity+2; s++ {
		run = append(run, DataMsg{View: 1, Meta: obsolete.Msg{Sender: "peer", Seq: s}})
	}
	input(e, event{data: []transport.Envelope{{From: "peer", Msg: &DataBatchMsg{Msgs: run}}}})
	if len(e.vc.pending) > 0 {
		t.Fatal("arrivals stalled behind a full queue that had a waiter")
	}
	if got := served(w); fmt.Sprint(got) != "[1 2 3 4]" || e.vc.toDeliver.Len() != 2 {
		t.Fatalf("waiter got %v and %d stay queued, want [1 2 3 4] and 2", got, e.vc.toDeliver.Len())
	}

	// With nobody waiting the full queue parks the batch where it stands.
	e, _ = txnEngine(obsolete.Empty{}, 0, 0, capacity)
	req.done = 0
	if e.vc.advance(req) || req.done != capacity {
		t.Fatalf("batch committed %d of %d into a queue of %d with no waiter", req.done, len(req.batch), capacity)
	}
}

// TestRoomyQueueNeverCounted: the capacity check reads what an arrival
// lists only when the queue is full. Every arrival here lists the message
// just before it.
func TestRoomyQueueNeverCounted(t *testing.T) {
	asked, listed := 0, 0
	rel := countingKEnum{KEnumeration: obsolete.KEnumeration{K: 1}, calls: &asked, listed: &listed}
	q := queue.New(rel, 3)
	item := func(s ident.Seq) queue.Item {
		return queue.Item{Kind: queue.Data, View: 1, Meta: obsolete.Msg{Sender: "p", Seq: s, Annot: []byte{1}}}
	}
	for s := ident.Seq(1); s <= 2; s++ {
		q.ForceAppend(item(s))
		if fullAfterPurge(q, item(s+1)) || asked != 0 {
			t.Fatalf("queue of %d/3 reported full or asked the relation %d times", q.Len(), asked)
		}
	}
	q.ForceAppend(item(4))
	if fullAfterPurge(q, item(5)) || asked == 0 {
		t.Fatalf("full queue whose arrival purges one: full, or never asked (%d)", asked)
	}
	if !fullAfterPurge(q, item(9)) {
		t.Fatal("full queue whose arrival purges nothing reported room")
	}
}

// TestOneRunPerFlush: a transaction stages one run for every peer. Four
// members commit a 64-message batch in which every fourth message obsoletes
// the one four before it, under a window of 64; peer c holds only 40 credits
// (24 copies of earlier traffic still in flight), so it runs out at message
// 40. The flush copies the survivors once: a and b are handed one envelope,
// and c a prefix of the same backing array holding exactly the survivors
// among the first 40. c's refund drains the head of its outgoing queue and
// the rest waits there; every peer's credits held plus copies in flight make
// up the window; and committing a batch allocates as much at four members as
// at two.
func TestOneRunPerFlush(t *testing.T) {
	const window, batch, short = 64, 64, 40
	e, log := txnEngine(tagging, window, window, 0, "a", "b", "c")
	a, b, c := e.vc.others[0], e.vc.others[1], e.vc.others[2]
	c.avail = short
	inFlight := map[*peer]int{c: window - short}

	req, tags := &request{kind: reqMulticast}, tagStreams{}
	for s := ident.Seq(1); s <= batch; s++ {
		tag := uint32(100 + s)
		if s%4 == 0 {
			tag = 1
		}
		req.batch = append(req.batch, OutMsg{Meta: tags.next("me", tag)})
	}
	if !e.vc.advance(req) {
		t.Fatalf("batch parked at message %d", req.done)
	}
	// survivors lists the messages among the first n that no later message
	// of the batch obsoletes.
	survivors := func(n int) []ident.Seq {
		var out []ident.Seq
		for i, m := range req.batch[:n] {
			dead := false
			for _, later := range req.batch[i+1:] {
				dead = dead || e.cfg.Relation.Obsoletes(m.Meta, later.Meta)
			}
			if !dead {
				out = append(out, m.Meta.Seq)
			}
		}
		return out
	}
	seqs := func(envs ...any) []ident.Seq {
		var out []ident.Seq
		for _, env := range envs {
			switch m := env.(type) {
			case DataMsg:
				out = append(out, m.Meta.Seq)
			case *DataBatchMsg:
				for _, dm := range m.Msgs {
					out = append(out, dm.Meta.Seq)
				}
			}
		}
		return out
	}

	// (a) One copy of the run: the full-credit peers share one envelope, and
	// the short peer's is a prefix of its backing array.
	envA, envB, envC := log.envs["a"], log.envs["b"], log.envs["c"]
	if len(envA) != 1 || len(envB) != 1 || len(envC) == 0 {
		t.Fatalf("envelopes a/b/c = %d/%d/%d, want 1/1/at least 1", len(envA), len(envB), len(envC))
	}
	runA, okA := envA[0].(*DataBatchMsg)
	runB, okB := envB[0].(*DataBatchMsg)
	runC, okC := envC[0].(*DataBatchMsg)
	if !okA || !okB || !okC {
		t.Fatalf("envelopes %T %T %T, want three batches", envA[0], envB[0], envC[0])
	}
	if &runA.Msgs[0] != &runB.Msgs[0] || &runA.Msgs[0] != &runC.Msgs[0] {
		t.Fatal("the peers were handed separate copies of one run")
	}
	if got, want := fmt.Sprint(seqs(runA)), fmt.Sprint(survivors(batch)); got != want {
		t.Fatalf("a got %v, want the batch's survivors %v", got, want)
	}

	// (b) c got exactly the survivors among the first 40; what its refund let
	// out next came from the head of its outgoing queue, and the rest waits
	// there.
	if got, want := fmt.Sprint(seqs(runC)), fmt.Sprint(survivors(short)); got != want {
		t.Fatalf("c's run = %v, want the survivors among the first %d: %v", got, short, want)
	}
	toC := seqs(envC...)
	c.out.EachRef(func(it *queue.Item) bool {
		toC = append(toC, it.Meta.Seq)
		return true
	})
	if got, want := fmt.Sprint(toC), fmt.Sprint(survivors(batch)); got != want || c.out.Len() == 0 {
		t.Fatalf("c was sent and still queues %v (%d queued), want %v with a rest queued", got, c.out.Len(), want)
	}

	// (c) Credits held plus copies in flight make up every window.
	for _, p := range []*peer{a, b, c} {
		if got := p.avail + inFlight[p] + len(seqs(log.envs[p.id]...)); got != window {
			t.Errorf("%s: %d credits held + %d copies in flight = %d, want the window %d",
				p.id, p.avail, got-p.avail, got, window)
		}
	}
	if e.vc.stats.CreditsExcess != 0 {
		t.Errorf("CreditsExcess = %d after an honest refund", e.vc.stats.CreditsExcess)
	}

	// (d) A batch committed to every peer costs the same allocations at two
	// members and at four.
	commitAllocs := func(peers ...ident.PID) float64 {
		e, log := txnEngine(obsolete.Empty{}, 0, 0, 0, peers...)
		log.discard = true
		req := &request{kind: reqMulticast, batch: make([]OutMsg, batch)}
		seq := ident.Seq(0)
		return testing.AllocsPerRun(20, func() {
			for i := range req.batch {
				seq++
				req.batch[i].Meta = obsolete.Msg{Seq: seq}
			}
			req.done = 0
			if !e.vc.advance(req) {
				t.Fatal("equal-credit batch parked")
			}
			e.vc.replies = e.vc.replies[:0]
			for e.vc.toDeliver.PeekHead() != nil {
				e.vc.toDeliver.PopHead()
			}
		})
	}
	if two, four := commitAllocs("a"), commitAllocs("a", "b", "c"); two != four {
		t.Errorf("a batch commit allocates %v times at 2 members and %v at 4", two, four)
	}
}

// TestCallStepAllocatesNothing: stepping the application's calls and the
// data arrivals allocates nothing once the buffers have grown. A 64-message
// multicast request commits under open windows — the peer's grant, stepped
// as any control envelope, reopens them — and a deliver request drains the
// queue it filled; a 64-message DataBatchMsg from the peer, stepped as an
// event, fills it as well. Each message updates one of 64 items, obsoleting
// the last update, so the queue and the history stay the size they are.
// The runs the flushes send are cut from blocks of runBlock: one
// allocation per block, which AllocsPerRun's whole allocations per run
// round down to none.
func TestCallStepAllocatesNothing(t *testing.T) {
	const batch, runs = 64, 100
	e, log := txnEngine(tagging, batch, batch, batch, "a")
	log.discard = true
	tags := tagStreams{}
	metas := make([]obsolete.Msg, 2*(runs+1)*batch)
	for i := range metas {
		metas[i] = tags.next("me", uint32(1+i%batch))
	}
	mc := &request{kind: reqMulticast, batch: make([]OutMsg, batch)}
	dl := &request{kind: reqDeliver, dst: make([]Delivery, batch)}
	var grant any = CreditMsg{View: e.vc.cv.ID, Credits: batch}
	call := func(e *Engine, req *request) {
		input(e, event{msg: req})
		e.vc.endTurn()
		if len(e.vc.replies) != 1 || req.res.err != nil {
			t.Fatalf("%d answers to a call of kind %d (%v), want it answered", len(e.vc.replies), req.kind, req.res.err)
		}
		e.vc.replies = e.vc.replies[:0]
	}
	multicast := func() {
		for i := range mc.batch {
			mc.batch[i].Meta, metas = metas[0], metas[1:]
		}
		mc.done = 0
		call(e, mc)
		input(e, event{from: "a", msg: grant})
	}
	if n := testing.AllocsPerRun(runs, multicast); n != 0 {
		t.Errorf("a %d-message multicast request allocates %v times", batch, n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		multicast()
		call(e, dl)
		if dl.res.n != batch {
			t.Fatalf("a deliver request took %d of a queue of %d", dl.res.n, batch)
		}
	}); n != 0 {
		t.Errorf("a multicast and a deliver request allocate %v times", n)
	}

	// The receiving side, with flow control off: no grant goes back.
	r, rlog := txnEngine(tagging, 0, 0, batch, "a")
	rlog.discard = true
	arrivals := make([][]transport.Envelope, runs+1)
	for i := range arrivals {
		run := make([]DataMsg, batch)
		for j := range run {
			run[j] = DataMsg{View: r.vc.cv.ID, Meta: tags.next("a", uint32(1+j))}
		}
		arrivals[i] = []transport.Envelope{{From: "a", Msg: &DataBatchMsg{Msgs: run}}}
	}
	if n := testing.AllocsPerRun(runs, func() {
		input(r, event{data: arrivals[0]})
		arrivals = arrivals[1:]
		call(r, dl)
		if dl.res.n != batch {
			t.Fatalf("a deliver request took %d of %d arrivals", dl.res.n, batch)
		}
	}); n != 0 {
		t.Errorf("a %d-message data batch and a deliver request allocate %v times", batch, n)
	}
}
