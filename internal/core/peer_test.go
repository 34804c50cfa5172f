package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// TestForgedSenderDropped: a process outside the view sends a current-view
// data message in the name of a PID that is no member, and a credit grant in
// its own; a member sends a data message in another member's name. All three
// are dropped and counted, nothing of them is delivered, the impersonated
// member's real stream still arrives (its frontier was never raised), and
// the peer table gains no record for either outsider's name.
func TestForgedSenderDropped(t *testing.T) {
	net := transport.NewMemNetwork()
	view0 := View{ID: 1, Members: ident.NewPIDs("p0", "p1", "p2")}
	reg := obs.NewRegistry()
	engs := map[ident.PID]*Engine{}
	eps := map[ident.PID]*transport.MemEndpoint{}
	for _, p := range view0.Members {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		cfg := config{Self: p, Endpoint: ep, Detector: det, GroupConfig: GroupConfig{InitialView: view0, Window: 4, OutgoingCap: 4}}
		if p == "p0" {
			cfg.Obs = obs.New(nil, reg, nil)
		}
		eng, err := start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engs[p], eps[p] = eng, ep
		t.Cleanup(func() {
			eng.stop()
			det.Stop()
			ep.Close()
		})
	}
	victim := engs["p0"]
	records := len(view0.Members) // a record per member, our own included
	evil, err := net.Endpoint("evil")
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()

	forged := DataMsg{View: 1, Meta: obsolete.Msg{Sender: "ghost", Seq: 1}, Payload: []byte("forged")}
	if err := evil.Send("p0", 0, transport.Data, forged); err != nil {
		t.Fatal(err)
	}
	if err := evil.Send("p0", 0, transport.Ctl, CreditMsg{View: 1, Credits: 1000}); err != nil {
		t.Fatal(err)
	}
	// p1 impersonates p2, far ahead of p2's real stream: accepted, it would
	// raise p2's reception frontier past everything p2 is about to send.
	impersonated := DataMsg{View: 1, Meta: obsolete.Msg{Sender: "p2", Seq: 100}, Payload: []byte("impersonated")}
	if err := eps["p1"].Send("p0", 0, transport.Data, impersonated); err != nil {
		t.Fatal(err)
	}
	const counter = "engine_dropped_total{reason=unknown_sender}"
	waitCond(t, "all three forgeries counted", func() bool { return reg.Snapshot().Counters[counter] >= 3 })

	// Honest messages sent afterwards are the first things p0 delivers.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	want := map[ident.PID]string{"p1": "honest", "p2": "real"}
	for p, payload := range want {
		if _, err := engs[p].Multicast(ctx, obsolete.Msg{Sender: p, Seq: 1}, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	for range want {
		if d, err := victim.Deliver(ctx); err != nil || d.Meta.Seq != 1 || want[d.Meta.Sender] != string(d.Payload) {
			t.Fatalf("p0 delivered %+v (%v), want p1's and p2's first messages and nothing forged", d, err)
		}
	}
	victim.stop() // the loop has exited: its state is safe to read
	if got := reg.Snapshot().Counters[counter]; got != 3 {
		t.Errorf("%s = %d, want 3", counter, got)
	}
	if len(victim.vc.peers) != records || victim.vc.peers["ghost"] != nil || victim.vc.peers["evil"] != nil {
		t.Errorf("peer table grew from %d to %d records: %v", records, len(victim.vc.peers), victim.vc.peers)
	}
	if st := victim.Stats(); st.Delivered != 2 || st.DroppedCovered != 0 {
		t.Errorf("p0 delivered %d messages and dropped %d as covered, want 2 and 0", st.Delivered, st.DroppedCovered)
	}
}

// tableMember is one incarnation of a PID in TestPeerTableFollowsView: an
// engine, its attachments, and an application that consumes everything and
// remembers the highest number delivered per sender.
type tableMember struct {
	eng  *Engine
	ep   *transport.MemEndpoint
	det  *fd.Manual
	stop context.CancelFunc
	done chan struct{}

	mu   sync.Mutex
	seen map[ident.PID]ident.Seq
}

func (m *tableMember) delivered(s ident.PID) ident.Seq {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen[s]
}

// halt stops the incarnation for good; its engine's state is safe to read
// afterwards.
func (m *tableMember) halt() {
	m.stop()
	m.eng.stop()
	<-m.done
	m.det.Stop()
	m.ep.Close()
}

// TestPeerTableFollowsView drives a 5-PID group over memnet through a seeded
// schedule of joins, voluntary leaves, evictions of crashed members and
// rejoins under the same PID, with traffic in every view. A PID that comes
// back continues the numbering of its earlier incarnation and its first
// message is delivered everywhere, and once the last view has gone quiet
// the credit ledgers of every pair add up to the window while the records
// of the processes that left hold nothing of a view. The table at each
// install is the explorer's property (f) (checkArmed).
func TestPeerTableFollowsView(t *testing.T) {
	changes := 200
	if testing.Short() {
		changes = 40
	}
	const window = 8
	rng := rand.New(rand.NewSource(18))
	net := transport.NewMemNetwork()
	all := ident.NewPIDs("p0", "p1", "p2", "p3", "p4")
	live := map[ident.PID]*tableMember{}
	lastSeq := map[ident.PID]ident.Seq{} // per PID, across its incarnations
	tags := tagStreams{}                 // so is each PID's tagging stream

	launch := func(p ident.PID, cfg config) *tableMember {
		t.Helper()
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		m := &tableMember{ep: ep, det: fd.NewManual(), done: make(chan struct{}), seen: map[ident.PID]ident.Seq{}}
		cfg.Self, cfg.Endpoint, cfg.Detector = p, ep, m.det
		cfg.Relation = tagging
		cfg.Window, cfg.OutgoingCap, cfg.ToDeliverCap = window, window, 4*window
		cfg.StabilityInterval = 2 * time.Millisecond // so that peers have something reported
		if m.eng, err = start(cfg); err != nil {
			t.Fatal(err)
		}
		var ctx context.Context
		ctx, m.stop = context.WithCancel(context.Background())
		go func() {
			defer close(m.done)
			for {
				d, err := m.eng.Deliver(ctx)
				if err != nil || d.Kind == DeliverExpelled {
					return
				}
				if d.Kind == DeliverData {
					m.mu.Lock()
					m.seen[d.Meta.Sender] = max(m.seen[d.Meta.Sender], d.Meta.Seq)
					m.mu.Unlock()
				}
			}
		}()
		live[p] = m
		return m
	}
	t.Cleanup(func() {
		for _, m := range live {
			m.halt()
		}
	})
	members := func() ident.PIDs {
		var ps []ident.PID
		for p := range live {
			ps = append(ps, p)
		}
		return ident.NewPIDs(ps...)
	}
	// settled waits until every live member is in one view of exactly the
	// live PIDs.
	settled := func(what string) {
		t.Helper()
		want := members()
		waitCond(t, what, func() bool {
			var ref ident.ViewRef
			for _, m := range live {
				v := m.eng.View()
				if !v.Members.Equal(want) || (ref != ident.ViewRef{} && v.Ref() != ref) {
					return false
				}
				ref = v.Ref()
			}
			return true
		})
	}
	// traffic has every live member multicast a burst that obsoletes most of
	// itself and ends in a message nothing obsoletes, then waits for those
	// last messages to be delivered everywhere.
	traffic := func(burst int) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		for _, p := range members() {
			var batch []OutMsg
			for i := 0; i <= burst; i++ {
				tag := uint32(0) // the last is reliable
				if i < burst {
					tag = uint32(1 + rng.Intn(2))
				}
				meta := tags.next(p, tag)
				lastSeq[p] = meta.Seq
				batch = append(batch, OutMsg{Meta: meta, Payload: []byte{byte(i)}})
			}
			if _, err := live[p].eng.MulticastBatch(ctx, batch); err != nil {
				t.Fatalf("%s multicasting %d..%d: %v", p, batch[0].Meta.Seq, lastSeq[p], err)
			}
		}
		for _, p := range members() {
			for q, m := range live {
				waitCond(t, fmt.Sprintf("%s delivering %s:%d", q, p, lastSeq[p]), func() bool {
					return m.delivered(p) == lastSeq[p]
				})
			}
		}
	}

	founders := ident.NewPIDs("p0", "p1", "p2")
	for _, p := range founders {
		launch(p, config{GroupConfig: GroupConfig{InitialView: View{ID: 1, Members: founders}}})
	}
	traffic(3)

	joins, rejoins, leaves, evictions := 0, 0, 0, 0
	for step := 0; step < changes; step++ {
		in := members()
		switch canJoin, canShrink := len(in) < len(all), len(in) > 2; {
		case canJoin && (!canShrink || rng.Intn(2) == 0):
			out := all.Without(in)
			p := out[rng.Intn(len(out))]
			for _, m := range live {
				m.det.Restore(p) // an evicted incarnation was suspected
			}
			m := launch(p, config{Join: &JoinSpec{Contacts: in}})
			settled(fmt.Sprintf("step %d: %s joining %v", step, p, in))
			// The numbering of p runs on where its last incarnation stopped:
			// the transfer carried the frontier the group kept for it.
			if got := m.eng.Stats().LastSent; got != lastSeq[p] {
				t.Fatalf("step %d: %s came back numbering from %d, its last message was %d", step, p, got, lastSeq[p])
			}
			if lastSeq[p] > 0 {
				rejoins++
			} else {
				joins++
			}
		case rng.Intn(2) == 0:
			// A voluntary leave: the member asks for its own removal and
			// retires once it has been told.
			p := in[rng.Intn(len(in))]
			m := live[p]
			if err := m.eng.RequestViewChange(p); err != nil {
				t.Fatal(err)
			}
			delete(live, p)
			settled(fmt.Sprintf("step %d: %s leaving %v", step, p, in))
			select {
			case <-m.done: // it delivered the view that expels it
			case <-time.After(15 * time.Second):
				t.Fatalf("step %d: %s was never told it left", step, p)
			}
			m.halt()
			leaves++
		default:
			// An eviction: the member crashes, the others come to suspect it
			// and one of them asks for its removal.
			p := in[rng.Intn(len(in))]
			live[p].halt()
			delete(live, p)
			for _, m := range live {
				m.det.Suspect(p)
			}
			rest := members()
			if err := live[rest[rng.Intn(len(rest))]].eng.RequestViewChange(p); err != nil {
				t.Fatal(err)
			}
			settled(fmt.Sprintf("step %d: evicting %s from %v", step, p, in))
			evictions++
		}
		traffic(rng.Intn(2 * window))
	}
	if joins == 0 || rejoins < changes/8 || leaves < changes/8 || evictions < changes/8 {
		t.Fatalf("vacuous schedule: %d joins, %d rejoins, %d leaves, %d evictions", joins, rejoins, leaves, evictions)
	}
	// Quiescence: everything multicast has been delivered everywhere. Let the
	// last credit grants land, stop every loop, and read both ends of every
	// window: the credits the sender holds plus the slots the receiver has
	// freed but not yet granted make up the window (nothing is in flight),
	// and the receiver's bound on what the sender holds is exact.
	traffic(3 * window)
	final := members()
	var prev []Stats
	waitCond(t, "the last view going quiet", func() bool {
		cur := make([]Stats, 0, len(final))
		for _, p := range final {
			cur = append(cur, live[p].eng.Stats())
		}
		same := reflect.DeepEqual(cur, prev)
		prev = cur
		return same
	})
	engs := map[ident.PID]*Engine{}
	for p, m := range live {
		m.halt()
		engs[p] = m.eng
		delete(live, p)
	}
	for _, a := range final {
		for _, b := range final {
			if a == b {
				continue
			}
			ab, ba := engs[a].vc.peers[b], engs[b].vc.peers[a]
			if ab.avail+ba.owed != window || ab.out.Len() != 0 || ba.granted-ba.used != ab.avail {
				t.Errorf("%s→%s: %d credits held + %d owed (granted %d, used %d, %d queued), want the window %d",
					a, b, ab.avail, ba.owed, ba.granted, ba.used, ab.out.Len(), window)
			}
		}
		// Of a process that left, the table keeps its frontiers and nothing
		// that belongs to a view.
		for id, p := range engs[a].vc.peers {
			if !final.Contains(id) && !reflect.DeepEqual(p.link, link{}) {
				t.Errorf("%s: %s left, yet its record keeps per-view state: %+v", a, id, p.link)
			}
		}
	}
}
