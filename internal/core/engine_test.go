package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// groupHarness wires an n-member group over an in-memory network, with a
// shared execution recorder and an application driver per member that
// pulls deliveries into the recorder. Every engine sends through faults,
// which cuts and heals links; net crashes processes.
type groupHarness struct {
	t      *testing.T
	net    *transport.MemNetwork
	faults *transport.Faults
	rel    obsolete.Relation
	rec    *check.Recorder
	tags   tagStreams // what update mints

	pids    ident.PIDs
	members map[ident.PID]*gMember
}

type gMember struct {
	pid ident.PID
	ep  *transport.MemEndpoint
	det *fd.Manual
	eng *Engine

	mu        sync.Mutex
	delay     time.Duration // artificial per-delivery slowness
	paused    bool
	lastView  View // most recent view reported to the application
	expelledC chan struct{}
	loopDone  chan struct{}
	cancel    context.CancelFunc
}

type harnessOpts struct {
	n            int
	rel          obsolete.Relation
	toDeliverCap int
	outgoingCap  int
	window       int
	autoEvict    bool
	stability    time.Duration
	heal         bool      // enable partition healing
	clock        obs.Clock // nil = wall clock
}

func newGroup(t *testing.T, o harnessOpts) *groupHarness {
	t.Helper()
	if o.rel == nil {
		o.rel = obsolete.Empty{}
	}
	h := &groupHarness{
		t:       t,
		net:     transport.NewMemNetwork(),
		faults:  transport.NewFaults(1),
		rel:     o.rel,
		rec:     check.NewRecorder(o.rel),
		tags:    tagStreams{},
		members: make(map[ident.PID]*gMember),
	}
	var pids []ident.PID
	for i := 0; i < o.n; i++ {
		pids = append(pids, ident.PID(fmt.Sprintf("p%d", i)))
	}
	h.pids = ident.NewPIDs(pids...)
	view0 := View{ID: 1, Members: h.pids}
	h.rec.SetInitialView(view0.ID)

	var ob *obs.Obs
	if o.clock != nil {
		ob = obs.New(o.clock, nil, nil)
	}
	for _, p := range h.pids {
		ep, err := h.net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		eng, err := start(config{
			Self:     p,
			Endpoint: h.faults.Wrap(ep),
			Detector: det,
			Obs:      ob,
			GroupConfig: GroupConfig{
				InitialView:       view0,
				Relation:          o.rel,
				ToDeliverCap:      o.toDeliverCap,
				OutgoingCap:       o.outgoingCap,
				Window:            o.window,
				AutoEvict:         o.autoEvict,
				StabilityInterval: o.stability,
				Heal:              o.heal,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		m := &gMember{
			pid:       p,
			ep:        ep,
			det:       det,
			eng:       eng,
			expelledC: make(chan struct{}),
			loopDone:  make(chan struct{}),
		}
		h.members[p] = m
	}
	for _, p := range h.pids {
		h.startDriver(h.members[p])
	}
	t.Cleanup(func() {
		for _, p := range h.pids {
			m := h.members[p]
			m.cancel()
			m.eng.stop()
			<-m.loopDone
			m.det.Stop()
			m.ep.Close()
		}
	})
	return h
}

// startDriver launches the application loop of m: deliver everything,
// record it, signal views.
func (h *groupHarness) startDriver(m *gMember) {
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	go func() {
		defer close(m.loopDone)
		for {
			m.mu.Lock()
			d, paused := m.delay, m.paused
			m.mu.Unlock()
			if paused {
				select {
				case <-time.After(time.Millisecond):
					continue
				case <-ctx.Done():
					return
				}
			}
			del, err := m.eng.Deliver(ctx)
			if err != nil {
				return
			}
			switch del.Kind {
			case DeliverData:
				h.rec.DeliverRef(m.pid, del.Meta, ident.ViewRef{Epoch: del.Epoch, ID: del.View})
				if d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
			case DeliverView:
				h.rec.InstallRef(m.pid, del.NewView.Ref(), del.NewView.Members)
				m.mu.Lock()
				m.lastView = del.NewView
				m.mu.Unlock()
			case DeliverExpelled:
				close(m.expelledC)
				return
			}
		}
	}()
}

// slowDown makes m's application consume each delivery in d.
func (m *gMember) slowDown(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.delay = d
}

// update multicasts p's next tagging message (see tagStreams.next) and
// returns its sequence number.
func (h *groupHarness) update(p ident.PID, tag uint32) ident.Seq {
	h.t.Helper()
	m := h.tags.next(p, tag)
	if err := h.multicast(p, m.Seq, m.Annot, nil); err != nil {
		h.t.Fatal(err)
	}
	return m.Seq
}

// multicast sends a tracked message from p and records it.
func (h *groupHarness) multicast(p ident.PID, seq ident.Seq, annot []byte, payload []byte) error {
	h.t.Helper()
	m := h.members[p]
	meta := obsolete.Msg{Sender: p, Seq: seq, Annot: annot}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	view, err := m.eng.Multicast(ctx, meta, payload)
	if err != nil {
		return err
	}
	h.rec.MulticastRef(meta, view)
	return nil
}

// waitView blocks until p has reported installing a view with identifier
// at least id. It is idempotent: repeated calls for the same view return
// immediately.
func (h *groupHarness) waitView(p ident.PID, id ident.ViewID) View {
	h.t.Helper()
	m := h.members[p]
	deadline := time.After(15 * time.Second)
	for {
		m.mu.Lock()
		v := m.lastView
		m.mu.Unlock()
		if v.ID >= id {
			return v
		}
		select {
		case <-deadline:
			h.t.Fatalf("%s never installed view %d (stats %+v)", p, id, m.eng.Stats())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// waitDelivered polls until pred over p's recorded log is true.
func (h *groupHarness) waitDelivered(p ident.PID, pred func([]check.Event) bool) {
	h.t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		if pred(h.rec.Log(p)) {
			return
		}
		select {
		case <-deadline:
			h.t.Fatalf("%s: condition never met; log len %d", p, len(h.rec.Log(p)))
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func hasSeq(log []check.Event, sender ident.PID, seq ident.Seq) bool {
	for _, ev := range log {
		if ev.Kind == check.EvDeliver && ev.Meta.Sender == sender && ev.Meta.Seq == seq {
			return true
		}
	}
	return false
}

func countData(log []check.Event) int {
	n := 0
	for _, ev := range log {
		if ev.Kind == check.EvDeliver {
			n++
		}
	}
	return n
}

func (h *groupHarness) verify() {
	h.t.Helper()
	for _, err := range h.rec.Verify() {
		h.t.Error(err)
	}
}

// ---------------------------------------------------------------------------

func TestBroadcastAllDeliver(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 3, rel: obsolete.KEnumeration{K: 16}})
	tr := obsolete.NewKTracker(16)
	const count = 20
	for i := 0; i < count; i++ {
		seq, annot := tr.Next()
		if err := h.multicast("p0", seq, annot, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool {
			return hasSeq(log, "p0", count)
		})
	}
	// Fast consumers: nothing became obsolete in-buffer necessarily, but
	// every process must have all messages (no view change => no omission
	// without purging; with fast consumers purging is rare but legal).
	h.verify()
}

func TestViewChangeSameMembership(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 3, rel: tagging})
	for i := 0; i < 10; i++ {
		h.update("p0", uint32(1+i%3))
	}
	if err := h.members["p0"].eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.pids {
		v := h.waitView(p, 2)
		if !v.Members.Equal(h.pids) {
			t.Fatalf("%s: view 2 members %v, want %v", p, v.Members, h.pids)
		}
	}
	// Multicast still works in the new view.
	seq := h.update("p0", 9)
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", seq) })
	}
	h.verify()
}

func TestViewChangeExcludesCrashedMember(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 3, rel: tagging})
	for i := 0; i < 5; i++ {
		h.update("p0", uint32(1+i))
	}
	// p2 crashes; survivors suspect it and evict it.
	h.net.Crash("p2")
	h.members["p0"].det.Suspect("p2")
	h.members["p1"].det.Suspect("p2")
	if err := h.members["p0"].eng.RequestViewChange("p2"); err != nil {
		t.Fatal(err)
	}
	want := ident.NewPIDs("p0", "p1")
	for _, p := range want {
		v := h.waitView(p, 2)
		if !v.Members.Equal(want) {
			t.Fatalf("%s: view 2 members %v, want %v", p, v.Members, want)
		}
	}
	// The group remains live.
	seq := h.update("p0", 42)
	h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", seq) })
	h.verify()
}

func TestExpelledSlowMember(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 3, rel: tagging})
	for i := 0; i < 5; i++ {
		h.update("p0", uint32(1+i))
	}
	// p2 is alive but the group decides to expel it (e.g. persistent
	// perturbation). p2 must receive DeliverExpelled.
	if err := h.members["p0"].eng.RequestViewChange("p2"); err != nil {
		t.Fatal(err)
	}
	want := ident.NewPIDs("p0", "p1")
	for _, p := range want {
		h.waitView(p, 2)
	}
	select {
	case <-h.members["p2"].expelledC:
	case <-time.After(15 * time.Second):
		t.Fatal("p2 never learned it was expelled")
	}
	// Multicast from the expelled member fails.
	meta := obsolete.Msg{Sender: "p2", Seq: 1}
	_, err := h.members["p2"].eng.Multicast(context.Background(), meta, nil)
	if !errors.Is(err, ErrExpelled) && !errors.Is(err, ErrStopped) {
		t.Fatalf("expelled multicast err = %v", err)
	}
	h.verify()
}

func TestMulticastSeqDiscipline(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 2, rel: tagging})
	// Sequence numbers must start at 1 and be contiguous.
	meta := obsolete.Msg{Sender: "p0", Seq: 5}
	if _, err := h.members["p0"].eng.Multicast(context.Background(), meta, nil); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("err = %v, want ErrBadSeq", err)
	}
	if err := h.multicast("p0", 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.members["p0"].eng.Multicast(context.Background(), obsolete.Msg{Sender: "p0", Seq: 1}, nil); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("replayed seq err = %v, want ErrBadSeq", err)
	}
}

func TestConcurrentViewChangeInitiators(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 4, rel: tagging})
	for i := 0; i < 8; i++ {
		h.update("p0", uint32(1+i%2))
	}
	// Two members start a view change at once, with different leave sets.
	errC := make(chan error, 2)
	go func() { errC <- h.members["p0"].eng.RequestViewChange() }()
	go func() { errC <- h.members["p1"].eng.RequestViewChange("p3") }()
	for i := 0; i < 2; i++ {
		if err := <-errC; err != nil {
			t.Fatal(err)
		}
	}
	// Everyone still in the group installs the same view 2; whether p3 is
	// excluded depends on which INIT won — the checker enforces agreement.
	v := h.waitView("p0", 2)
	for _, p := range v.Members {
		h.waitView(p, 2)
	}
	h.verify()
}

func TestSlowConsumerIsAccommodatedByPurging(t *testing.T) {
	const k = 64
	h := newGroup(t, harnessOpts{
		n:            3,
		rel:          obsolete.KEnumeration{K: k},
		toDeliverCap: 8,
		outgoingCap:  8,
		window:       8,
	})
	// p2's application is slow: 3ms per message while p0 produces as fast
	// as flow control admits.
	h.members["p2"].slowDown(3 * time.Millisecond)

	it := obsolete.NewItemTracker(obsolete.NewKTracker(k))
	const updates = 300
	const items = 4
	var lastSeq ident.Seq
	for i := 0; i < updates; i++ {
		seq, annot := it.Update(uint32(i % items))
		if err := h.multicast("p0", seq, annot, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		lastSeq = seq
	}
	// Every member eventually holds the final update of the stream.
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", lastSeq) })
	}
	// The slow member must have seen purging: strictly fewer deliveries
	// than were multicast.
	slowCount := countData(h.rec.Log("p2"))
	if slowCount >= updates {
		t.Errorf("slow consumer delivered %d of %d messages — no purging happened", slowCount, updates)
	}
	st := h.members["p2"].eng.Stats()
	if st.PurgedToDeliver == 0 && h.members["p0"].eng.Stats().PurgedOutgoing == 0 {
		t.Error("no purging recorded anywhere on the slow path")
	}
	// A view change after the run must still satisfy SVS.
	if err := h.members["p0"].eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.pids {
		h.waitView(p, 2)
	}
	h.verify()
}

func TestVSFlushesEverythingToSlowMember(t *testing.T) {
	// With the empty relation (classic VS) a slow member must receive
	// every message — across a view change — even though it lags.
	h := newGroup(t, harnessOpts{n: 3, rel: obsolete.Empty{}, window: 4, toDeliverCap: 16, outgoingCap: 64})
	h.members["p2"].slowDown(2 * time.Millisecond)

	var seq ident.Seq
	const count = 40
	for i := 0; i < count; i++ {
		seq++
		if err := h.multicast("p0", seq, nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.members["p0"].eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.pids {
		h.waitView(p, 2)
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool {
			n := 0
			for _, ev := range log {
				if ev.Kind == check.EvDeliver && ev.Meta.Sender == "p0" {
					n++
				}
			}
			return n == count
		})
	}
	h.verify()
}

func TestMulticastDuringViewChangeParksAndResumes(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 3, rel: tagging})
	// Pause all drivers so the view change stays observable; the engine
	// blocks multicasts while the group is blocked.
	h.update("p0", 1)
	if err := h.members["p1"].eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	// This multicast may land in view 1 or view 2 depending on timing;
	// either way it must complete and be delivered group-wide.
	h.update("p0", 2)
	for _, p := range h.pids {
		h.waitView(p, 2)
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", 2) })
	}
	h.verify()
}

func TestAutoEvictOnSuspicion(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 3, rel: tagging, autoEvict: true})
	h.update("p0", 1)
	h.net.Crash("p2")
	h.members["p0"].det.Suspect("p2")
	h.members["p1"].det.Suspect("p2")
	want := ident.NewPIDs("p0", "p1")
	for _, p := range want {
		v := h.waitView(p, 2)
		if v.Members.Contains("p2") {
			t.Fatalf("%s: suspected member not evicted: %v", p, v.Members)
		}
	}
	h.verify()
}

func TestSequentialViewChanges(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 3, rel: tagging})
	for round := 0; round < 4; round++ {
		for i := 0; i < 5; i++ {
			h.update("p0", uint32(1+i))
		}
		if err := h.members["p0"].eng.RequestViewChange(); err != nil {
			t.Fatal(err)
		}
		for _, p := range h.pids {
			h.waitView(p, ident.ViewID(2+round))
		}
	}
	h.verify()
}

// TestEngineConfigValidation: a node refuses a config without Self or
// Endpoint, or whose Endpoint is another process's, and a node refuses to
// create a group it cannot be a founding member of.
// TestEngineConfigValidation: NewNode refuses a config without Self or
// Endpoint, or with another process's Endpoint, and Create refuses a group
// the node cannot found.
func TestEngineConfigValidation(t *testing.T) {
	view := View{ID: 1, Members: ident.NewPIDs("a", "b")}
	tests := []struct {
		name string
		self ident.PID // the node's; its endpoint is always a's
		noEP bool      // the node gets no endpoint
		gc   GroupConfig
	}{
		{"missing self", "", false, GroupConfig{InitialView: view}},
		{"missing endpoint", "a", true, GroupConfig{InitialView: view}},
		{"empty view", "a", false, GroupConfig{}},
		{"self not member", "a", false, GroupConfig{InitialView: View{ID: 1, Members: ident.NewPIDs("x", "y")}}},
		{"self mismatch", "b", false, GroupConfig{InitialView: view}},
		{"negative cap", "a", false, GroupConfig{InitialView: view, ToDeliverCap: -1}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ep, err := transport.NewMemNetwork().Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			det := fd.NewManual()
			defer det.Stop()
			nc := NodeConfig{Self: tc.self, Endpoint: ep, Detector: det}
			if tc.noEP {
				nc.Endpoint = nil
			}
			n, err := NewNode(nc)
			if err == nil {
				defer n.Close()
				_, err = n.Create(1, tc.gc)
			}
			if err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestStatsSnapshot(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 2, rel: tagging})
	for i := 1; i <= 3; i++ {
		h.update("p0", 7)
	}
	h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", 3) })
	st := h.members["p0"].eng.Stats()
	if st.Multicast != 3 {
		t.Fatalf("Multicast = %d, want 3", st.Multicast)
	}
	if st.View != 1 || st.Members != 2 {
		t.Fatalf("View/Members = %d/%d", st.View, st.Members)
	}
	v := h.members["p0"].eng.View()
	if v.ID != 1 || !v.Members.Equal(h.pids) {
		t.Fatalf("View() = %v", v)
	}
	if h.members["p0"].eng.Self() != "p0" {
		t.Fatal("Self() wrong")
	}
}

// TestAnsweredCallReturnsItsReply: a call the loop answered returns the
// answer, even when the stop or the caller's cancel has landed as well —
// the call took effect, and MulticastBatch promises that a failed message
// was not committed. Every request here holds its reply before the call
// is made; a call that did not get into the loop fails.
func TestAnsweredCallReturnsItsReply(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		stopped bool
		err     error
	}{
		{name: "stopped", ctx: context.Background(), stopped: true, err: ErrStopped},
		{name: "cancelled", ctx: cancelled, err: context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &Engine{reqC: make(chan *request, 1), doneC: make(chan struct{})}
			if tc.stopped {
				close(e.doneC)
			}
			answer := result{view: ident.ViewRef{ID: 7}, n: 1}
			reached := 0
			for i := 0; i < 1000; i++ {
				req := &request{kind: reqMulticast, resC: make(chan result, 1)}
				req.resC <- answer
				res, _ := e.roundTrip(tc.ctx, req)
				select {
				case <-e.reqC:
					reached++
					if res != answer {
						t.Fatalf("call %d reached the loop and returned %+v, want its reply %+v", i, res, answer)
					}
				default:
					if !errors.Is(res.err, tc.err) {
						t.Fatalf("call %d never reached the loop and returned %+v, want %v", i, res, tc.err)
					}
				}
			}
			if reached == 0 {
				t.Fatal("no call reached the loop")
			}
		})
	}
}
