package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// TestOverspentFloodDropped: a member that ignores its credits cannot make a
// paused receiver keep its traffic. p0's raw endpoint floods p1, whose
// application is paused, with one-message batches at window 4 and a
// delivery queue of 4: p1 keeps what fits its queue and p0's credits, and
// drops and counts the rest, so what the flood leaves on p1's heap does
// not grow with the flood's size. The flood goes out in runs that p1 has
// counted before the next, so the transport's own inbox stays short.
func TestOverspentFloodDropped(t *testing.T) {
	const window, capacity = 4, 4
	h := newGroup(t, harnessOpts{n: 2, toDeliverCap: capacity, outgoingCap: capacity, window: window})
	p1 := h.members["p1"]
	p1.mu.Lock()
	p1.paused = true
	p1.mu.Unlock()

	payload := make([]byte, 64) // shared by every envelope
	var seq ident.Seq
	flood := func(n int) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for sent := 0; sent < n; {
			for end := min(sent+2000, n); sent < end; sent++ {
				seq++
				dm := DataMsg{View: 1, Meta: obsolete.Msg{Sender: "p0", Seq: seq}, Payload: payload}
				if err := h.members["p0"].ep.Send("p1", 0, transport.Data, &DataBatchMsg{Msgs: []DataMsg{dm}}); err != nil {
					t.Fatal(err)
				}
			}
			waitCond(t, "p1 to account for the flood", func() bool {
				st := p1.eng.Stats()
				return st.DroppedOverspent+uint64(st.ToDeliverLen) == uint64(seq)
			})
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	small := flood(20_000)
	large := flood(200_000)

	st := p1.eng.Stats()
	if kept := st.ToDeliverLen + int(st.Delivered); kept > window+capacity {
		t.Fatalf("p1 kept %d of p0's messages before granting any credit, bound %d", kept, window+capacity)
	}
	if want := uint64(seq) - uint64(st.ToDeliverLen); st.DroppedOverspent != want {
		t.Fatalf("DroppedOverspent = %d, want %d", st.DroppedOverspent, want)
	}
	if large > small+1<<20 {
		t.Fatalf("heap grew by %d bytes over 200,000 envelopes and by %d over 20,000: the flood is kept", large, small)
	}
	t.Logf("heap growth: %d B at 20,000 envelopes, %d B at 200,000", small, large)

	// What p1 kept is p0's stream from its start: it delivers it once it
	// resumes.
	for s := ident.Seq(1); s <= ident.Seq(st.ToDeliverLen); s++ {
		h.rec.Multicast(obsolete.Msg{Sender: "p0", Seq: s}, 1)
	}
	p1.mu.Lock()
	p1.paused = false
	p1.mu.Unlock()
	h.waitDelivered("p1", func(log []check.Event) bool { return countData(log) == st.ToDeliverLen })
	h.verify()
}

// valueNet is a group of member values wired by one FIFO of sends, stepped
// by hand: every send waits in flight until stepOne hands it to its
// receiver, which then ends its turn, as the engine's loop does.
type valueNet struct {
	procs    map[ident.PID]*viewState
	inflight []valueSend
}

// valueSend is a send in flight: env on channel ch to process to.
type valueSend struct {
	to  ident.PID
	ch  transport.Channel
	env transport.Envelope
}

// valueOut is process self's outlet in net n.
type valueOut struct {
	n    *valueNet
	self ident.PID
}

func (o valueOut) Send(to ident.PID, _ ident.GroupID, ch transport.Channel, msg any) error {
	o.n.inflight = append(o.n.inflight, valueSend{to, ch, transport.Envelope{From: o.self, Msg: msg}})
	return nil
}

func newValueNet(pids ident.PIDs, gc GroupConfig) *valueNet {
	n := &valueNet{procs: map[ident.PID]*viewState{}}
	for _, p := range pids {
		cfg := &config{Self: p, GroupConfig: gc}
		s := newViewState(cfg, View{ID: 1, Members: pids}, valueOut{n, p})
		n.procs[p] = &s
	}
	return n
}

// stepOne hands the oldest send in flight to its receiver; false if none.
func (n *valueNet) stepOne() bool {
	if len(n.inflight) == 0 {
		return false
	}
	f := n.inflight[0]
	n.inflight = n.inflight[1:]
	n.input(f.to, f.env, f.ch)
	return true
}

// input steps process to with env, received on channel ch, and ends the
// turn.
func (n *valueNet) input(to ident.PID, env transport.Envelope, ch transport.Channel) {
	ev := event{from: env.From, msg: env.Msg}
	if ch == transport.Data {
		ev = event{data: []transport.Envelope{env}}
	}
	ev.now, ev.detector = time.Unix(0, 0), suspects(nil)
	step(n.procs[to], ev)
	n.procs[to].endTurn()
}

// consume is p's application taking everything its queue holds, and the
// turn ending; it returns the data delivered.
func (n *valueNet) consume(p ident.PID) []obsolete.Msg {
	s := n.procs[p]
	var got []obsolete.Msg
	for it := s.toDeliver.PeekHead(); it != nil; it = s.toDeliver.PeekHead() {
		d, _ := s.deliverItem(it, nil)
		s.toDeliver.PopHead()
		if d.Kind == DeliverData {
			got = append(got, d.Meta)
		}
	}
	s.endTurn()
	return got
}

// TestTwoSendersPending: two senders, window 4 each, flood a receiver whose
// application is paused and whose delivery queue holds 4. What does not fit
// waits in the receiver's value, at most the 8 credits it granted; a
// re-sent copy of an arrival that waits is dropped as covered, and one past
// its sender's credits as overspent. Once the receiver resumes it delivers
// each stream whole and in order.
func TestTwoSendersPending(t *testing.T) {
	const window, msgs = 4, 100
	pids := ident.NewPIDs("p0", "p1", "p2")
	n := newValueNet(pids, GroupConfig{Relation: obsolete.Empty{}, ToDeliverCap: 4, OutgoingCap: 4, Window: window})
	for _, p := range []ident.PID{"p0", "p1"} {
		req := &request{kind: reqMulticast}
		for s := ident.Seq(1); s <= msgs; s++ {
			req.batch = append(req.batch, OutMsg{Meta: obsolete.Msg{Sender: p, Seq: s}})
		}
		step(n.procs[p], event{msg: req, now: time.Unix(0, 0), detector: suspects(nil)})
		n.procs[p].endTurn()
	}
	receiver := n.procs["p2"]
	delivered := map[ident.PID][]ident.Seq{}
	run := func(resumed bool) (most int) {
		for n.stepOne() {
			most = max(most, len(receiver.pending))
			n.consume("p0")
			n.consume("p1")
			if resumed {
				for _, m := range n.consume("p2") {
					delivered[m.Sender] = append(delivered[m.Sender], m.Seq)
				}
			}
		}
		return most
	}
	most := run(false)
	if most == 0 || most > 2*window {
		t.Fatalf("at most %d arrivals waited at the paused receiver, want 1 to %d", most, 2*window)
	}
	t.Logf("at most %d arrivals waited", most)
	if len(n.procs["p0"].multicastQ)+len(n.procs["p1"].multicastQ) != 2 {
		t.Fatal("a sender finished against a paused receiver")
	}

	copyOf, covered := receiver.pending[0], receiver.stats.DroppedCovered
	held := len(receiver.pending)
	n.input("p2", transport.Envelope{From: copyOf.Meta.Sender, Msg: copyOf}, transport.Data)
	if len(receiver.pending) != held || receiver.stats.DroppedCovered != covered+1 {
		t.Fatalf("a re-sent copy of %v: %d pending (was %d), %d covered (was %d)",
			copyOf.Meta.ID(), len(receiver.pending), held, receiver.stats.DroppedCovered, covered)
	}

	// p0 has spent every credit p2 granted it: what it sends on is
	// dropped, even behind the arrivals that wait.
	extra := DataMsg{View: 1, Meta: obsolete.Msg{Sender: "p0", Seq: msgs + 1}}
	n.input("p2", transport.Envelope{From: "p0", Msg: extra}, transport.Data)
	if len(receiver.pending) != held || receiver.stats.DroppedOverspent != 1 {
		t.Fatalf("an arrival past p0's credits: %d pending (was %d), %d overspent, want 1",
			len(receiver.pending), held, receiver.stats.DroppedOverspent)
	}
	receiver.stats.DroppedOverspent = 0

	for _, m := range n.consume("p2") {
		delivered[m.Sender] = append(delivered[m.Sender], m.Seq)
	}
	run(true)
	for _, p := range []ident.PID{"p0", "p1"} {
		got := delivered[p]
		if len(got) != msgs {
			t.Fatalf("p2 delivered %d of %s's %d messages", len(got), p, msgs)
		}
		for i, s := range got {
			if s != ident.Seq(i+1) {
				t.Fatalf("p2 delivered %s's stream as %v", p, got)
			}
		}
	}
	if st := receiver.stats; st.DroppedOverspent != 0 || st.DroppedCovered != covered+1 {
		t.Fatalf("honest senders lost messages: %d overspent, %d covered", st.DroppedOverspent, st.DroppedCovered)
	}
}

// TestPendingWhileNotOpen: a process that is not open holds the data of a
// view it may yet enter, a window per sender on top of the credits the
// sender has of the current view, and what it holds from strangers — from
// anyone, for a joiner — shares strangerWindows windows. It drops the
// current view's in an ordinary change, which ends only in a later view.
// In a merge it holds the current view's too, and takes it once the merge
// aborts.
func TestPendingWhileNotOpen(t *testing.T) {
	const window = 4
	arrive := func(s *viewState, from ident.PID, view ident.ViewID, seq ident.Seq) {
		dm := DataMsg{View: view, Meta: obsolete.Msg{Sender: from, Seq: seq}}
		step(s, event{data: []transport.Envelope{{From: from, Msg: dm}}, now: time.Unix(0, 0), detector: suspects(nil)})
	}
	members := ident.NewPIDs("me", "p1", "p2")

	joiner := &config{Self: "me", Join: &JoinSpec{Contacts: ident.NewPIDs("p1")}, GroupConfig: GroupConfig{Window: window}}
	j := newViewState(joiner, View{}, valueOut{&valueNet{}, "me"})
	for seq := ident.Seq(1); seq <= 2*window; seq++ {
		arrive(&j, "p1", 2, seq)
		arrive(&j, "x", 2, seq)
	}
	arrive(&j, "p1", 2, 1) // a re-sent copy
	if len(j.pending) != 2*window || j.stats.DroppedOverspent != 2*window || j.stats.DroppedCovered != 1 {
		t.Fatalf("joiner: %d pending, %d overspent, %d covered; want %d, %d and 1",
			len(j.pending), j.stats.DroppedOverspent, j.stats.DroppedCovered, 2*window, 2*window)
	}
	// A flood in the names of ever new processes fills the strangers' share
	// and no more.
	const strangers = 2 * strangerWindows * window
	for i := 0; i < strangers; i++ {
		arrive(&j, ident.PID(fmt.Sprintf("x%d", i)), 2, 1)
	}
	if want := strangerWindows * window; len(j.pending) != want || j.stats.DroppedOverspent != 2*window+uint64(strangers+2*window-want) {
		t.Fatalf("joiner after %d strangers: %d pending, %d overspent; want %d and %d",
			strangers, len(j.pending), j.stats.DroppedOverspent, want, 2*window+strangers+2*window-want)
	}

	n := newValueNet(members, GroupConfig{Window: window})
	m := n.procs["me"]
	m.cons = undecided{}
	step(m, event{from: "p1", msg: InitMsg{View: View{ID: 1}, Join: []ident.PID{"j"}}, now: time.Unix(0, 0), detector: suspects(nil)})
	if m.chg == nil {
		t.Fatal("the INIT did not block")
	}
	for seq := ident.Seq(1); seq <= 3*window; seq++ {
		arrive(m, "p1", 1, seq)               // the current view's: stale
		arrive(m, "p2", 2, seq)               // the next view's: held up to its credits and a window
		arrive(m, "x", 2, seq)                // a stranger's: held up to a window
		arrive(m, "p1", ident.ViewID(0), seq) // an earlier view's: stale
	}
	if st := m.stats; len(m.pending) != 3*window || st.DroppedOverspent != 3*window || st.DroppedStale != 6*window {
		t.Fatalf("blocked member: %d pending, %d overspent, %d stale; want %d, %d and %d",
			len(m.pending), st.DroppedOverspent, st.DroppedStale, 3*window, 3*window, 6*window)
	}
	// Strangers fill their share; the change's joiner still gets a window.
	for i := 0; i < strangers; i++ {
		arrive(m, ident.PID(fmt.Sprintf("x%d", i)), 2, 1)
	}
	for seq := ident.Seq(1); seq <= 2*window; seq++ {
		arrive(m, "j", 2, seq)
	}
	if want := (strangerWindows + 1) * window; len(m.pending) != want {
		t.Fatalf("blocked member after %d strangers and the joiner: %d pending, want %d", strangers, len(m.pending), want)
	}

	far := View{ID: 7, Epoch: 9, Members: ident.NewPIDs("q1")}
	st := newStepper("p1", ident.NewPIDs("p1", "p2"), true)
	st.feed("q1", InitMsg{View: View{ID: 4, Members: ident.NewPIDs("p1", "p2")}, Far: &far})
	arrive(&st.s, "p2", 4, 1)
	arrive(&st.s, "q1", 8, 1) // the union's, from the far side
	arrive(&st.s, "p2", 4, 2)
	st.tickAt(exploreNow.Add(mergeTimeout))
	st.s.endTurn()
	if st.s.chg != nil || len(st.s.pending) != 0 || st.s.toDeliver.Len() != 2 || st.s.stats.DroppedStale != 1 {
		t.Fatalf("after an aborted merge: change %v, %d pending, %d queued, %d stale; want none, 0, 2 and 1",
			st.s.chg, len(st.s.pending), st.s.toDeliver.Len(), st.s.stats.DroppedStale)
	}
}

// decisionBox is a consensus machine shared by a valueNet's processes that
// decides nothing by itself: it keeps the first proposal, and a process
// learns a decision only when the test hands it one (decide).
type decisionBox struct{ id, value []byte }

func (d *decisionBox) Propose(id string, _ ident.PIDs, value []byte) ([]consensus.Decision, error) {
	if d.value == nil {
		d.id, d.value = []byte(id), value
	}
	return nil, nil
}
func (*decisionBox) Decided(string) ([]byte, bool) { return nil, false }
func (*decisionBox) Recheck() []consensus.Decision { return nil }
func (*decisionBox) Receive(_ ident.PID, m consensus.Msg) []consensus.Decision {
	return []consensus.Decision{{Instance: m.Instance, Value: m.Value}}
}

// decide hands process p the decision of the box's proposal.
func (n *valueNet) decide(p ident.PID, d *decisionBox) {
	n.input(p, transport.Envelope{From: p, Msg: consensus.Msg{Instance: string(d.id), Value: d.value}}, transport.Ctl)
}

// stepAllBut steps every send in flight, and every send those make, but
// the ones to p, which stay in flight in the order they were sent.
func (n *valueNet) stepAllBut(p ident.PID) {
	var kept []valueSend
	for len(n.inflight) > 0 {
		f := n.inflight[0]
		n.inflight = n.inflight[1:]
		if f.to == p {
			kept = append(kept, f)
			continue
		}
		n.input(f.to, f.env, f.ch)
	}
	n.inflight = kept
}

// TestBlockedMemberTakesJoinerData: p0 and p2 admit the joiner p1, and p2
// learns the decision last. p1 enters view 2 on p0's transfer and
// multicasts at once, with the full window a new view grants; its data
// reaches p2 while p2 is still blocked. p2 holds it — p1 is a joiner of
// the change — and delivers p1's stream whole once it enters view 2.
func TestBlockedMemberTakesJoinerData(t *testing.T) {
	const window = 4
	gc := GroupConfig{Relation: obsolete.Empty{}, ToDeliverCap: 8, OutgoingCap: 8, Window: window}
	n := newValueNet(ident.NewPIDs("p0", "p2"), gc)
	joiner := &config{Self: "p1", Join: &JoinSpec{Contacts: ident.NewPIDs("p0")}, GroupConfig: gc}
	j := newViewState(joiner, View{}, valueOut{n, "p1"})
	n.procs["p1"] = &j
	box := &decisionBox{}
	for _, s := range n.procs {
		s.cons = box
	}
	step(n.procs["p0"], event{msg: &request{kind: reqViewChange, join: ident.NewPIDs("p1")}, now: time.Unix(0, 0), detector: suspects(nil)})
	n.procs["p0"].endTurn()
	for n.stepOne() {
	}
	if box.value == nil {
		t.Fatal("nobody proposed")
	}

	n.decide("p0", box)
	n.stepAllBut("p2")
	if j.cv.ID != 2 || !j.open() {
		t.Fatalf("the joiner is in view %d, open %v", j.cv.ID, j.open())
	}
	req := &request{kind: reqMulticast}
	for s := ident.Seq(1); s <= window; s++ {
		req.batch = append(req.batch, OutMsg{Meta: obsolete.Msg{Sender: "p1", Seq: s}})
	}
	n.input("p1", transport.Envelope{Msg: req}, transport.Ctl)
	if req.res.err != nil || req.done != window {
		t.Fatalf("the joiner multicast %d of %d messages: %v", req.done, window, req.res.err)
	}

	p2 := n.procs["p2"]
	var rest []valueSend
	for _, f := range n.inflight {
		if f.to == "p2" && f.ch == transport.Data {
			n.input(f.to, f.env, f.ch)
		} else {
			rest = append(rest, f)
		}
	}
	n.inflight = rest
	if p2.chg == nil || len(p2.pending) != window {
		t.Fatalf("p2: blocked %v, %d arrivals pending, want blocked and %d", p2.chg != nil, len(p2.pending), window)
	}
	n.decide("p2", box)
	for n.stepOne() {
	}
	var got []ident.Seq
	for _, m := range n.consume("p2") {
		if m.Sender == "p1" {
			got = append(got, m.Seq)
		}
	}
	if len(got) != window {
		t.Fatalf("p2 delivered p1's stream as %v, want 1 to %d", got, window)
	}
	for i, s := range got {
		if s != ident.Seq(i+1) {
			t.Fatalf("p2 delivered p1's stream as %v, want 1 to %d", got, window)
		}
	}
}
