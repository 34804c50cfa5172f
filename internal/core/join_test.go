package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// joinDrain is a delivery loop that records every data delivery's
// metadata and the installed views, with a pause switch — what the join
// tests need to assert on the exact backlog a joiner received.
type joinDrain struct {
	mu     sync.Mutex
	seqs   map[ident.PID][]ident.Seq // per sender, in delivery order
	views  []ident.ViewID
	paused bool
}

func newJoinDrain() *joinDrain {
	return &joinDrain{seqs: make(map[ident.PID][]ident.Seq)}
}

func (d *joinDrain) run(ctx context.Context, g *Group, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		d.mu.Lock()
		paused := d.paused
		d.mu.Unlock()
		if paused {
			select {
			case <-time.After(time.Millisecond):
				continue
			case <-ctx.Done():
				return
			}
		}
		del, err := g.Deliver(ctx)
		if err != nil {
			return
		}
		d.mu.Lock()
		switch del.Kind {
		case DeliverData:
			d.seqs[del.Meta.Sender] = append(d.seqs[del.Meta.Sender], del.Meta.Seq)
		case DeliverView, DeliverExpelled:
			d.views = append(d.views, del.NewView.ID)
		}
		d.mu.Unlock()
	}
}

func (d *joinDrain) setPaused(p bool) {
	d.mu.Lock()
	d.paused = p
	d.mu.Unlock()
}

func (d *joinDrain) hasSeq(sender ident.PID, seq ident.Seq) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.seqs[sender] {
		if s == seq {
			return true
		}
	}
	return false
}

func (d *joinDrain) view() ident.ViewID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.views) == 0 {
		return 0
	}
	return d.views[len(d.views)-1]
}

// dataBeforeFirstView returns the sender->seqs delivered before the first
// view notification — for a joiner, exactly the state-transfer backlog.
func (d *joinDrain) all(sender ident.PID) []ident.Seq {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ident.Seq, len(d.seqs[sender]))
	copy(out, d.seqs[sender])
	return out
}

func joinWaitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// joinerNode builds one extra node on the same MemNetwork as the founders.
func joinerNode(t *testing.T, net *transport.MemNetwork, pid ident.PID) *Node {
	t.Helper()
	ep, err := net.Endpoint(pid)
	if err != nil {
		t.Fatal(err)
	}
	det := fd.NewManual()
	node, err := NewNode(NodeConfig{Self: pid, Endpoint: ep, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Close()
		det.Stop()
	})
	return node
}

// TestJoinMidStreamMem: a fourth process joins a running 3-member group
// after 20 tagged multicasts. The joiner must install the same view as
// the incumbents, receive exactly the non-obsolete backlog (one message
// per tag — everything else is obsoleted under tagging and must NOT be
// transferred), and deliver all subsequent multicasts.
func TestJoinMidStreamMem(t *testing.T) {
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("n0", "n1", "n2")
	nodes := make(map[ident.PID]*Node)
	for _, p := range pids {
		nodes[p] = joinerNode(t, net, p)
	}
	const tags = 4
	gc := GroupConfig{Relation: tagging}
	groups := createEverywhere(t, nodes, pids, 1, gc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	drains := make(map[ident.PID]*joinDrain)
	for _, p := range pids {
		d := newJoinDrain()
		drains[p] = d
		wg.Add(1)
		go d.run(ctx, groups[p], &wg)
	}
	defer wg.Wait()
	defer cancel()

	const produced = 20
	ts := tagStreams{}
	for i := 1; i <= produced; i++ {
		meta := ts.next("n0", uint32(1+i%tags))
		mctx, mcancel := context.WithTimeout(ctx, 10*time.Second)
		_, err := groups["n0"].Multicast(mctx, meta, []byte(fmt.Sprintf("v%d", i)))
		mcancel()
		if err != nil {
			t.Fatalf("multicast %d: %v", i, err)
		}
	}
	for _, p := range pids {
		joinWaitCond(t, "stream drained at "+string(p), func() bool {
			return drains[p].hasSeq("n0", produced)
		})
	}

	// Join. The contact is n1 (not the sponsor, which will be n0): the
	// request travels contact -> view change -> sponsor's state transfer.
	jn := joinerNode(t, net, "n3")
	jg, err := jn.Join(1, gc, "n1")
	if err != nil {
		t.Fatal(err)
	}
	jd := newJoinDrain()
	wg.Add(1)
	go jd.run(ctx, jg, &wg)

	joinWaitCond(t, "joiner installed a view", func() bool { return jd.view() >= 2 })
	want := pids.Add("n3")
	jv := jg.View()
	if jv.ID != 2 || !jv.Members.Equal(want) {
		t.Fatalf("joiner view = %v, want view 2 %v", jv, want)
	}
	for _, p := range pids {
		joinWaitCond(t, "incumbent "+string(p)+" installed view 2", func() bool {
			return drains[p].view() >= 2
		})
		if v := groups[p].View(); v.ID != 2 || !v.Members.Equal(want) {
			t.Fatalf("%s view = %v, want view 2 %v", p, v, want)
		}
	}

	// Semantic state transfer: the backlog is the last message per tag,
	// nothing more. Obsoleted messages (seq <= produced-tags) must not
	// have been shipped or delivered.
	st := jg.Stats()
	if st.JoinBacklogRecv == 0 || st.JoinBacklogRecv > tags {
		t.Fatalf("joiner backlog = %d messages, want 1..%d (non-obsolete only)", st.JoinBacklogRecv, tags)
	}
	for _, seq := range jd.all("n0") {
		if seq <= produced-tags {
			t.Fatalf("joiner delivered obsoleted backlog message seq %d", seq)
		}
	}
	sp := groups["n0"].Stats()
	if sp.JoinStatesSent == 0 || sp.JoinBacklogSent != uint64(st.JoinBacklogRecv) {
		t.Fatalf("sponsor stats = %+v, joiner backlog %d", sp, st.JoinBacklogRecv)
	}

	// The group is live with the newcomer: it sees subsequent multicasts
	// and can multicast itself.
	meta := ts.next("n0", 1) // seq produced+1
	if _, err := groups["n0"].Multicast(ctx, meta, []byte("after")); err != nil {
		t.Fatal(err)
	}
	joinWaitCond(t, "joiner got post-join multicast", func() bool {
		return jd.hasSeq("n0", produced+1)
	})
	jmeta := ts.next("n3", 1)
	if _, err := jg.Multicast(ctx, jmeta, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for _, p := range pids {
		joinWaitCond(t, string(p)+" got the joiner's multicast", func() bool {
			return drains[p].hasSeq("n3", 1)
		})
	}
}

// TestJoinWhileFlowBlockedMem: a slow receiver has exhausted the
// producer's window and parked its multicast; a join must still complete
// (the admitting view change flushes and re-arms the windows), release
// the parked producer, and — under the empty relation — the joiner must
// end up with the complete stream.
func TestJoinWhileFlowBlockedMem(t *testing.T) {
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("n0", "n1", "n2")
	nodes := make(map[ident.PID]*Node)
	for _, p := range pids {
		nodes[p] = joinerNode(t, net, p)
	}
	gc := GroupConfig{Relation: obsolete.Empty{}, ToDeliverCap: 4, OutgoingCap: 4, Window: 4}
	groups := createEverywhere(t, nodes, pids, 1, gc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	drains := make(map[ident.PID]*joinDrain)
	for _, p := range pids {
		d := newJoinDrain()
		drains[p] = d
		wg.Add(1)
		go d.run(ctx, groups[p], &wg)
	}
	defer wg.Wait()
	defer cancel()
	drains["n2"].setPaused(true)

	// Produce until the window on n2 is gone and a multicast parks.
	const produced = 24
	prodErr := make(chan error, 1)
	go func() {
		for i := 1; i <= produced; i++ {
			mctx, mcancel := context.WithTimeout(ctx, 30*time.Second)
			_, err := groups["n0"].Multicast(mctx, obsolete.Msg{Sender: "n0", Seq: ident.Seq(i)}, []byte{byte(i)})
			mcancel()
			if err != nil {
				prodErr <- err
				return
			}
		}
		prodErr <- nil
	}()
	joinWaitCond(t, "producer parked against the paused receiver", func() bool {
		return groups["n0"].Stats().MulticastParks > 0
	})

	// Join while the group is flow-blocked.
	jn := joinerNode(t, net, "n3")
	jg, err := jn.Join(1, gc, "n0")
	if err != nil {
		t.Fatal(err)
	}
	jd := newJoinDrain()
	wg.Add(1)
	go jd.run(ctx, jg, &wg)

	joinWaitCond(t, "joiner installed a view", func() bool { return jd.view() >= 2 })
	want := pids.Add("n3")
	if v := jg.View(); !v.Members.Equal(want) {
		t.Fatalf("joiner view members = %v, want %v", v.Members, want)
	}

	// The paused receiver resumes; the parked producer must finish and the
	// joiner — classic VS — must receive the whole stream (backlog, flush
	// and live traffic composing without gaps or duplicates).
	drains["n2"].setPaused(false)
	if err := <-prodErr; err != nil {
		t.Fatalf("producer: %v", err)
	}
	joinWaitCond(t, "joiner received the full stream", func() bool {
		return jd.hasSeq("n0", produced)
	})
	got := jd.all("n0")
	seen := make(map[ident.Seq]int)
	for _, s := range got {
		seen[s]++
		if seen[s] > 1 {
			t.Fatalf("joiner delivered seq %d twice", s)
		}
	}
	for s := ident.Seq(1); s <= produced; s++ {
		if seen[s] == 0 {
			t.Fatalf("joiner missed seq %d under the empty relation (got %v)", s, got)
		}
	}
}

// TestJoinIntoMultiGroupNode: joining one group of a multi-group node
// must not disturb the other hosted groups' views.
func TestJoinIntoMultiGroupNode(t *testing.T) {
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("n0", "n1", "n2")
	nodes := make(map[ident.PID]*Node)
	for _, p := range pids {
		nodes[p] = joinerNode(t, net, p)
	}
	gc := GroupConfig{Relation: obsolete.KEnumeration{K: 8}}
	g1 := createEverywhere(t, nodes, pids, 1, gc)
	g2 := createEverywhere(t, nodes, pids, 2, gc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	d1 := make(map[ident.PID]*joinDrain)
	d2 := make(map[ident.PID]*joinDrain)
	for _, p := range pids {
		d1[p], d2[p] = newJoinDrain(), newJoinDrain()
		wg.Add(2)
		go d1[p].run(ctx, g1[p], &wg)
		go d2[p].run(ctx, g2[p], &wg)
	}
	defer wg.Wait()
	defer cancel()

	for i := 1; i <= 5; i++ {
		if _, err := g1["n0"].Multicast(ctx, obsolete.Msg{Sender: "n0", Seq: ident.Seq(i)}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := g2["n0"].Multicast(ctx, obsolete.Msg{Sender: "n0", Seq: ident.Seq(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}

	jn := joinerNode(t, net, "n3")
	jg, err := jn.Join(1, gc, "n0", "n1")
	if err != nil {
		t.Fatal(err)
	}
	jd := newJoinDrain()
	wg.Add(1)
	go jd.run(ctx, jg, &wg)

	joinWaitCond(t, "joiner installed group 1's view", func() bool { return jd.view() >= 2 })
	if ids := jn.Groups(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("joiner hosts %v, want [1]", ids)
	}
	if _, err := g1["n0"].Multicast(ctx, obsolete.Msg{Sender: "n0", Seq: 6}, nil); err != nil {
		t.Fatal(err)
	}
	joinWaitCond(t, "joiner got group 1 traffic", func() bool { return jd.hasSeq("n0", 6) })

	// Group 2 never moved.
	for _, p := range pids {
		if v := g2[p].View(); v.ID != 1 || !v.Members.Equal(pids) {
			t.Fatalf("%s group 2 view = %v, want view 1 %v", p, v, pids)
		}
	}
	if _, err := g2["n0"].Multicast(ctx, obsolete.Msg{Sender: "n0", Seq: 6}, nil); err != nil {
		t.Fatal(err)
	}
	joinWaitCond(t, "group 2 still delivers", func() bool { return d2["n2"].hasSeq("n0", 6) })
}

// TestJoinOverTCP: the full handshake — join request, admitting view
// change, semantic state transfer — across real sockets, with the
// node-owned heartbeat detectors growing their peer sets at install.
func TestJoinOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration skipped in -short mode")
	}
	pids := ident.NewPIDs("t0", "t1", "t2")
	nodes, nets := tcpNodes(t, pids)
	gc := GroupConfig{Relation: tagging, ToDeliverCap: 16, OutgoingCap: 16, Window: 16}
	groups := createEverywhere(t, nodes, pids, 1, gc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	drains := make(map[ident.PID]*joinDrain)
	for _, p := range pids {
		d := newJoinDrain()
		drains[p] = d
		wg.Add(1)
		go d.run(ctx, groups[p], &wg)
	}
	defer wg.Wait()
	defer cancel()

	const tags = 3
	const produced = 18
	ts := tagStreams{}
	for i := 1; i <= produced; i++ {
		meta := ts.next("t0", uint32(1+i%tags))
		mctx, mcancel := context.WithTimeout(ctx, 10*time.Second)
		_, err := groups["t0"].Multicast(mctx, meta, []byte(fmt.Sprintf("v%d", i)))
		mcancel()
		if err != nil {
			t.Fatalf("multicast %d: %v", i, err)
		}
	}
	for _, p := range pids {
		joinWaitCond(t, "stream drained at "+string(p), func() bool {
			return drains[p].hasSeq("t0", produced)
		})
	}

	// The joiner's TCP network must know every peer and vice versa (the
	// state transfer and subsequent data flow both ways).
	jnet, err := transport.NewTCPNetwork("t3", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pids {
		jnet.AddPeer(p, nets[p].Addr())
		nets[p].AddPeer("t3", jnet.Addr())
	}
	jn, err := NewNode(NodeConfig{
		Self:      "t3",
		Endpoint:  jnet,
		Heartbeat: fd.HeartbeatOptions{Interval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jn.Close() })

	jg, err := jn.Join(1, gc, "t1")
	if err != nil {
		t.Fatal(err)
	}
	jd := newJoinDrain()
	wg.Add(1)
	go jd.run(ctx, jg, &wg)

	joinWaitCond(t, "joiner installed a view over TCP", func() bool { return jd.view() >= 2 })
	want := pids.Add("t3")
	if v := jg.View(); v.ID != 2 || !v.Members.Equal(want) {
		t.Fatalf("joiner view = %v, want view 2 %v", v, want)
	}
	st := jg.Stats()
	if st.JoinBacklogRecv == 0 || st.JoinBacklogRecv > tags {
		t.Fatalf("joiner backlog over TCP = %d, want 1..%d", st.JoinBacklogRecv, tags)
	}
	if st.JoinBytesRecv == 0 {
		t.Fatal("joiner reports zero transfer bytes")
	}

	meta := ts.next("t0", 1) // seq produced+1
	if _, err := groups["t0"].Multicast(ctx, meta, []byte("after")); err != nil {
		t.Fatal(err)
	}
	joinWaitCond(t, "joiner got post-join multicast over TCP", func() bool {
		return jd.hasSeq("t0", produced+1)
	})
}

// TestJoinStateFromNonMemberRejected pins the origin check on state
// transfers: only a member of the transferred view may hand it over, so
// a forged StateMsg from an outsider cannot hijack a joining engine.
func TestJoinStateFromNonMemberRejected(t *testing.T) {
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("j")
	if err != nil {
		t.Fatal(err)
	}
	det := fd.NewManual()
	defer det.Stop()
	eng, err := start(config{Self: "j", Endpoint: ep, Detector: det,
		Join: &JoinSpec{Contacts: ident.NewPIDs("ghost")}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.stop()

	evil, err := net.Endpoint("evil")
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	forged := StateMsg{View: View{ID: 9, Members: []ident.PID{"j", "ghost"}}}
	if err := evil.Send("j", 0, transport.Ctl, forged); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if v := eng.View(); v.ID != 0 {
		t.Fatalf("joiner hijacked by a non-member transfer: installed %v", v)
	}

	// The same transfer from a member of the transferred view is accepted.
	ghost, err := net.Endpoint("ghost")
	if err != nil {
		t.Fatal(err)
	}
	defer ghost.Close()
	if err := ghost.Send("j", 0, transport.Ctl, forged); err != nil {
		t.Fatal(err)
	}
	joinWaitCond(t, "legitimate transfer installed", func() bool { return eng.View().ID == 9 })
}

// TestJoinConfigValidation pins the joiner-mode config rules.
func TestJoinConfigValidation(t *testing.T) {
	net := transport.NewMemNetwork()
	ep, _ := net.Endpoint("j")
	defer ep.Close()
	det := fd.NewManual()
	defer det.Stop()

	if _, err := start(config{Self: "j", Endpoint: ep, Detector: det, Join: &JoinSpec{}}); err == nil {
		t.Fatal("join without contacts accepted")
	}
	if _, err := start(config{Self: "j", Endpoint: ep, Detector: det,
		Join: &JoinSpec{Contacts: ident.NewPIDs("j")}}); err == nil {
		t.Fatal("join with only self as contact accepted")
	}
	// A valid joiner config needs no InitialView.
	eng, err := start(config{Self: "j", Endpoint: ep, Detector: det,
		Join: &JoinSpec{Contacts: ident.NewPIDs("a")}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.stop()
	// View changes cannot be requested before the join completes.
	if err := eng.RequestViewChange(); !errors.Is(err, ErrJoining) {
		t.Fatalf("RequestViewChange while joining = %v, want ErrJoining", err)
	}
}
