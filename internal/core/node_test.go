package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// memNodes builds n nodes over one MemNetwork, each with a Manual
// detector (deterministic; the node-owned heartbeat is exercised by the
// TCP tests).
func memNodes(t *testing.T, pids ident.PIDs) map[ident.PID]*Node {
	t.Helper()
	net := transport.NewMemNetwork()
	nodes := make(map[ident.PID]*Node, len(pids))
	for _, p := range pids {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		node, err := NewNode(NodeConfig{Self: p, Endpoint: ep, Detector: det})
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = node
		t.Cleanup(func() {
			node.Close()
			det.Stop()
		})
	}
	return nodes
}

// createEverywhere joins every node to group id with the same config.
func createEverywhere(t *testing.T, nodes map[ident.PID]*Node, pids ident.PIDs, id ident.GroupID, gc GroupConfig) map[ident.PID]*Group {
	t.Helper()
	gc.InitialView = View{ID: 1, Members: pids}
	out := make(map[ident.PID]*Group, len(nodes))
	for _, p := range pids {
		g, err := nodes[p].Create(id, gc)
		if err != nil {
			t.Fatalf("create group %d at %s: %v", id, p, err)
		}
		out[p] = g
	}
	return out
}

// drain runs a delivery loop for g, counting data deliveries and
// recording installed views.
type drain struct {
	mu        sync.Mutex
	delivered int
	view      ident.ViewID
}

func (d *drain) run(ctx context.Context, g *Group, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		del, err := g.Deliver(ctx)
		if err != nil {
			return
		}
		d.mu.Lock()
		switch del.Kind {
		case DeliverData:
			d.delivered++
		case DeliverView, DeliverExpelled:
			d.view = del.NewView.ID
		}
		d.mu.Unlock()
	}
}

func (d *drain) snapshot() (int, ident.ViewID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.delivered, d.view
}

func TestNodeLifecycle(t *testing.T) {
	pids := ident.NewPIDs("n0", "n1", "n2")
	nodes := memNodes(t, pids)
	n0 := nodes["n0"]

	if _, err := n0.Create(ident.NodeGroup, GroupConfig{InitialView: View{ID: 1, Members: pids}}); err == nil {
		t.Fatal("reserved node group accepted")
	}

	ga := createEverywhere(t, nodes, pids, 1, GroupConfig{})
	gb := createEverywhere(t, nodes, pids, 2, GroupConfig{})
	if _, err := n0.Create(1, GroupConfig{InitialView: View{ID: 1, Members: pids}}); err == nil {
		t.Fatal("duplicate group accepted")
	}
	if got := n0.Groups(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Groups() = %v, want [1 2]", got)
	}
	if g, ok := n0.Group(2); !ok || g.ID() != 2 {
		t.Fatalf("Group(2) = %v, %v", g, ok)
	}

	// Both groups multicast and deliver independently on the shared
	// endpoints.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	drains := make(map[ident.GroupID]map[ident.PID]*drain)
	for id, groups := range map[ident.GroupID]map[ident.PID]*Group{1: ga, 2: gb} {
		drains[id] = make(map[ident.PID]*drain)
		for p, g := range groups {
			d := &drain{}
			drains[id][p] = d
			wg.Add(1)
			go d.run(ctx, g, &wg)
		}
	}
	const count = 20
	for i := 1; i <= count; i++ {
		meta := obsolete.Msg{Sender: "n0", Seq: ident.Seq(i)}
		if _, err := ga["n0"].Multicast(ctx, meta, []byte("a")); err != nil {
			t.Fatalf("group 1 multicast %d: %v", i, err)
		}
		if _, err := gb["n0"].Multicast(ctx, meta, []byte("b")); err != nil {
			t.Fatalf("group 2 multicast %d: %v", i, err)
		}
	}
	waitCond(t, "all deliveries in both groups", func() bool {
		for _, byPID := range drains {
			for _, d := range byPID {
				if n, _ := d.snapshot(); n != count {
					return false
				}
			}
		}
		return true
	})

	// Leaving group 2 everywhere keeps group 1 going.
	for _, p := range pids {
		gb[p].Leave()
		gb[p].Leave() // idempotent
	}
	if got := n0.Groups(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Groups() after leave = %v, want [1]", got)
	}
	meta := obsolete.Msg{Sender: "n0", Seq: count + 1}
	if _, err := ga["n0"].Multicast(ctx, meta, nil); err != nil {
		t.Fatalf("group 1 multicast after group 2 left: %v", err)
	}
	cancel()
	wg.Wait()
}

// testCrossGroupIsolation is the §5.3 buffer-separation rule at group
// granularity: group A is wedged (full protocol buffers, nobody
// delivering), yet group B on the same nodes keeps multicasting,
// delivering and even changes views.
func testCrossGroupIsolation(t *testing.T, nodes map[ident.PID]*Node, pids ident.PIDs) {
	t.Helper()
	const cap = 4
	tight := GroupConfig{ToDeliverCap: cap, OutgoingCap: cap, Window: cap}
	ga := createEverywhere(t, nodes, pids, 1, tight)
	gb := createEverywhere(t, nodes, pids, 2, tight)

	// Wedge group A: nobody delivers, so the producer's own delivery
	// queue fills and multicast blocks on flow control.
	blocked := false
	for i := 1; i <= 3*cap; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		_, err := ga[pids[0]].Multicast(ctx, obsolete.Msg{Sender: pids[0], Seq: ident.Seq(i)}, []byte("wedge"))
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("group A multicast %d: %v", i, err)
			}
			blocked = true
			break
		}
	}
	if !blocked {
		t.Fatal("group A never blocked: flow control not exercised")
	}

	// Group B must be unaffected: deliveries flow and a view change
	// completes while A stays wedged.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	drains := make(map[ident.PID]*drain, len(pids))
	for _, p := range pids {
		d := &drain{}
		drains[p] = d
		wg.Add(1)
		go d.run(ctx, gb[p], &wg)
	}
	const count = 3 * cap
	for i := 1; i <= count; i++ {
		mctx, mcancel := context.WithTimeout(ctx, 5*time.Second)
		_, err := gb[pids[0]].Multicast(mctx, obsolete.Msg{Sender: pids[0], Seq: ident.Seq(i)}, []byte("live"))
		mcancel()
		if err != nil {
			t.Fatalf("group B multicast %d while A wedged: %v", i, err)
		}
	}
	waitCond(t, "group B deliveries on all members", func() bool {
		for _, d := range drains {
			if n, _ := d.snapshot(); n != count {
				return false
			}
		}
		return true
	})
	if err := gb[pids[0]].RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "group B view 2 everywhere", func() bool {
		for _, d := range drains {
			if _, v := d.snapshot(); v < 2 {
				return false
			}
		}
		return true
	})

	// A is still wedged at view 1, untouched by B's view change.
	if st := ga[pids[0]].Stats(); st.View != 1 {
		t.Fatalf("group A view = %d, want 1", st.View)
	}
	cancel()
	wg.Wait()
}

func TestCrossGroupIsolationMem(t *testing.T) {
	pids := ident.NewPIDs("m0", "m1", "m2")
	testCrossGroupIsolation(t, memNodes(t, pids), pids)
}

func TestCrossGroupIsolationTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration skipped in -short mode")
	}
	pids := ident.NewPIDs("t0", "t1", "t2")
	nodes, _ := tcpNodes(t, pids)
	testCrossGroupIsolation(t, nodes, pids)
}

// TestNodeCreateErrorCleansUpInboxes: a failed Create must not leave the
// group's transport inboxes registered — otherwise peers that created
// the group successfully keep depositing into queues nothing consumes.
func TestNodeCreateErrorCleansUpInboxes(t *testing.T) {
	net := transport.NewMemNetwork()
	epA, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	det := fd.NewManual()
	defer det.Stop()
	node, err := NewNode(NodeConfig{Self: "b", Endpoint: epB, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// Self not in InitialView: engine construction fails, and start
	// registers the inboxes only once the config is valid.
	_, err = node.Create(7, GroupConfig{InitialView: View{ID: 1, Members: ident.NewPIDs("a", "x")}})
	if err == nil {
		t.Fatal("invalid group config accepted")
	}
	if err := epA.Send("b", 7, transport.Data, DataMsg{View: 1}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "stray envelope dropped at b", func() bool {
		return epB.Drops().DroppedUnknownGroup == 1
	})

	// The id is free for a correct retry.
	if _, err := node.Create(7, GroupConfig{InitialView: View{ID: 1, Members: ident.NewPIDs("a", "b")}}); err != nil {
		t.Fatalf("retry after failed create: %v", err)
	}
}

// TestNodeHeartbeatTracksEvictions: the node-owned heartbeat must follow
// view changes, not initial memberships — a peer evicted from its last
// shared group stops being monitored (and beaten), while a peer still
// listed by another group stays.
func TestNodeHeartbeatTracksEvictions(t *testing.T) {
	pids := ident.NewPIDs("h0", "h1", "hdead") // hdead never attaches
	live := ident.NewPIDs("h0", "h1")
	net := transport.NewMemNetwork()
	nodes := make(map[ident.PID]*Node, len(live))
	for _, p := range live {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(NodeConfig{
			Self:      p,
			Endpoint:  ep,
			Heartbeat: fd.HeartbeatOptions{Interval: 10 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = node
		t.Cleanup(func() { node.Close() })
	}

	// Group 1 auto-evicts; group 2 keeps its membership (no AutoEvict).
	// Both start with the three-member view that includes hdead.
	ga := make(map[ident.PID]*Group, len(live))
	gb := make(map[ident.PID]*Group, len(live))
	for _, p := range live {
		var err error
		if ga[p], err = nodes[p].Create(1, GroupConfig{InitialView: View{ID: 1, Members: pids}, AutoEvict: true}); err != nil {
			t.Fatal(err)
		}
		if gb[p], err = nodes[p].Create(2, GroupConfig{InitialView: View{ID: 1, Members: pids}}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range live {
		for _, g := range []*Group{ga[p], gb[p]} {
			d := &drain{}
			wg.Add(1)
			go d.run(ctx, g, &wg)
		}
	}

	// The heartbeat suspects hdead, group 1 evicts it, and the install
	// hook reports the shrunk membership — but group 2 still lists
	// hdead, so it must stay monitored (suspected).
	waitCond(t, "group 1 evicted hdead everywhere", func() bool {
		for _, p := range live {
			if v := ga[p].View(); v.Includes("hdead") || v.ID < 2 {
				return false
			}
		}
		return true
	})
	if !nodes["h0"].Detector().Suspected("hdead") {
		t.Fatal("hdead left group 2's membership: must still be monitored")
	}

	// Leaving group 2 drops the last reference: the union no longer
	// contains hdead and the heartbeat forgets it.
	for _, p := range live {
		gb[p].Leave()
	}
	waitCond(t, "hdead no longer monitored", func() bool {
		return !nodes["h0"].Detector().Suspected("hdead")
	})
	cancel()
	wg.Wait()
}

// beatNode is node self on net, running its own heartbeat every 10ms of a
// fake clock and recording into a registry of its own, and hosting group 9
// with "quiet", an endpoint that never answers: its one beat per tick
// succeeds, so fd_beats_sent_total moving tells that the heartbeat ran a
// tick. beat advances the clock one interval and waits for that.
type beatNode struct {
	*Node
	clock *obs.Fake
	reg   *obs.Registry
}

func newBeatNode(t *testing.T, net *transport.MemNetwork, self ident.PID) *beatNode {
	t.Helper()
	ep, err := net.Endpoint(self)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := net.Endpoint("quiet")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { quiet.Close() })
	b := &beatNode{clock: obs.NewFake(time.Unix(0, 0)), reg: obs.NewRegistry()}
	b.Node, err = NewNode(NodeConfig{
		Self: self, Endpoint: ep,
		Heartbeat: fd.HeartbeatOptions{Interval: 10 * time.Millisecond},
		Obs:       obs.New(b.clock, b.reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if _, err := b.Create(9, GroupConfig{InitialView: View{ID: 1, Members: ident.NewPIDs(self, "quiet")}}); err != nil {
		t.Fatal(err)
	}
	b.clock.BlockUntil(1) // the beat ticker
	return b
}

func (b *beatNode) counter(name string) uint64 { return b.reg.Snapshot().Counters[name] }

// suspected is the fd_suspected row of p, and whether there is one.
func (b *beatNode) suspected(p ident.PID) (int64, bool) {
	v, ok := b.reg.Snapshot().Gauges["fd_suspected{peer="+string(p)+"}"]
	return v, ok
}

func (b *beatNode) beat(t *testing.T) {
	t.Helper()
	sent := b.counter("fd_beats_sent_total")
	b.clock.Advance(10 * time.Millisecond)
	waitCond(t, "the heartbeat to run a tick", func() bool { return b.counter("fd_beats_sent_total") > sent })
}

// stopsBeating checks that, from the next beat on, the node neither
// monitors dead nor tries to beat it.
func (b *beatNode) stopsBeating(t *testing.T, dead ident.PID) {
	t.Helper()
	failed := b.counter("fd_beat_send_errors_total")
	for i := 0; i < 5; i++ {
		b.beat(t)
		if v, ok := b.suspected(dead); ok {
			t.Fatalf("beat %d after the group ended: fd_suspected{peer=%s} = %d, want no row", i+1, dead, v)
		}
		if got := b.counter("fd_beat_send_errors_total"); got != failed {
			t.Fatalf("beat %d after the group ended: fd_beat_send_errors_total %d -> %d", i+1, failed, got)
		}
	}
}

// TestJoinGiveUpStopsHeartbeat: a join whose only contact is dead gives up
// after its budget, and from the next beat on its node stops monitoring,
// and beating, the dead contact.
func TestJoinGiveUpStopsHeartbeat(t *testing.T) {
	b := newBeatNode(t, transport.NewMemNetwork(), "j")
	g, err := b.JoinWith(1, GroupConfig{}, JoinSpec{Contacts: ident.NewPIDs("dead"), GiveUp: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	b.clock.BlockUntil(2) // and the joiner's wake timer
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	gaveUp := make(chan error, 1)
	go func() {
		_, err := g.Deliver(ctx)
		gaveUp <- err
	}()
	// 150ms in, well past the 50ms timeout and short of the budget.
	for i := 0; i < 15; i++ {
		b.beat(t)
	}
	if v, ok := b.suspected("dead"); !ok || v != 1 || b.counter("fd_beat_send_errors_total") == 0 {
		t.Fatalf("while joining: fd_suspected{peer=dead} = %d (row %v), %d failed beats; want the dead contact suspected and beaten",
			v, ok, b.counter("fd_beat_send_errors_total"))
	}
	for i := 0; ; i++ {
		if i == 100 {
			t.Fatal("the join never gave up")
		}
		b.beat(t)
		select {
		case err := <-gaveUp:
			if !errors.Is(err, ErrJoinTimeout) {
				t.Fatalf("Deliver = %v, want ErrJoinTimeout", err)
			}
		default:
			continue
		}
		break
	}
	b.stopsBeating(t, "dead")
}

// TestExpelledGroupStopsHeartbeat: once a group has expelled this process,
// its node stops monitoring, and beating, the members that no other hosted
// group lists — here x, which crashes right after.
func TestExpelledGroupStopsHeartbeat(t *testing.T) {
	net := transport.NewMemNetwork()
	b := newBeatNode(t, net, "j")
	epX, err := net.Endpoint("x")
	if err != nil {
		t.Fatal(err)
	}
	detX := fd.NewManual()
	defer detX.Stop()
	x, err := NewNode(NodeConfig{Self: "x", Endpoint: epX, Detector: detX})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	gc := GroupConfig{InitialView: View{ID: 1, Members: ident.NewPIDs("j", "x")}}
	gj, err := b.Create(1, gc)
	if err != nil {
		t.Fatal(err)
	}
	gx, err := x.Create(1, gc)
	if err != nil {
		t.Fatal(err)
	}
	b.beat(t)
	if _, ok := b.suspected("x"); !ok {
		t.Fatal("x, a member of group 1, is not monitored")
	}

	// x removes j. The clock stands still, so nobody suspects anybody.
	if err := gx.RequestViewChange("j"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for {
		d, err := gj.Deliver(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if d.Kind == DeliverExpelled {
			break
		}
	}
	x.Close()
	b.stopsBeating(t, "x")
}

// tcpNodes builds one node per pid over real TCP endpoints with the
// node-owned heartbeat detector — the deployment shape the Node runtime
// is for.
func tcpNodes(t *testing.T, pids ident.PIDs) (map[ident.PID]*Node, map[ident.PID]*transport.TCPNetwork) {
	t.Helper()
	nets := make(map[ident.PID]*transport.TCPNetwork, len(pids))
	for _, p := range pids {
		n, err := transport.NewTCPNetwork(p, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		nets[p] = n
	}
	for _, p := range pids {
		for _, q := range pids {
			if p != q {
				nets[p].AddPeer(q, nets[q].Addr())
			}
		}
	}
	nodes := make(map[ident.PID]*Node, len(pids))
	for _, p := range pids {
		node, err := NewNode(NodeConfig{
			Self:      p,
			Endpoint:  nets[p],
			Heartbeat: fd.HeartbeatOptions{Interval: 20 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = node
		t.Cleanup(func() { node.Close() })
	}
	return nodes, nets
}

// TestManyGroupsOverTCPSharedConnections is the acceptance scenario: one
// process (per member) hosts 32 groups × 4 members over a single shared
// TCPNetwork endpoint, with exactly one outgoing connection per peer
// serving all of them.
func TestManyGroupsOverTCPSharedConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration skipped in -short mode")
	}
	const groups = 32
	pids := ident.NewPIDs("s0", "s1", "s2", "s3")
	nodes, nets := tcpNodes(t, pids)

	byGroup := make(map[ident.GroupID]map[ident.PID]*Group, groups)
	for id := ident.GroupID(1); id <= groups; id++ {
		byGroup[id] = createEverywhere(t, nodes, pids, id, GroupConfig{
			Relation: obsolete.KEnumeration{K: 16},
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	drains := make(map[ident.GroupID]map[ident.PID]*drain, groups)
	for id, members := range byGroup {
		drains[id] = make(map[ident.PID]*drain, len(pids))
		for p, g := range members {
			d := &drain{}
			drains[id][p] = d
			wg.Add(1)
			go d.run(ctx, g, &wg)
		}
	}

	// Every group's first member multicasts a burst; every member of
	// every group must deliver all of it.
	const perGroup = 5
	var prod sync.WaitGroup
	for id := ident.GroupID(1); id <= groups; id++ {
		prod.Add(1)
		go func(g *Group) {
			defer prod.Done()
			for i := 1; i <= perGroup; i++ {
				if _, err := g.Multicast(ctx, obsolete.Msg{Sender: pids[0], Seq: ident.Seq(i)}, []byte("x")); err != nil {
					t.Errorf("group %d multicast %d: %v", g.ID(), i, err)
					return
				}
			}
		}(byGroup[id][pids[0]])
	}
	prod.Wait()
	waitCond(t, "all groups delivered everywhere", func() bool {
		for _, byPID := range drains {
			for _, d := range byPID {
				if n, _ := d.snapshot(); n != perGroup {
					return false
				}
			}
		}
		return true
	})

	// A view change in group 1 must not move any other group's view.
	if err := byGroup[1][pids[0]].RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "group 1 view 2 everywhere", func() bool {
		for _, d := range drains[1] {
			if _, v := d.snapshot(); v < 2 {
				return false
			}
		}
		return true
	})
	for id := ident.GroupID(2); id <= groups; id++ {
		if st := byGroup[id][pids[0]].Stats(); st.View != 1 {
			t.Fatalf("group %d view = %d after group 1's view change", id, st.View)
		}
	}

	// The whole thing ran on one connection pair per peer: 32 groups'
	// data, control, consensus and the node heartbeats.
	for _, p := range pids {
		if got := nets[p].Conns(); got != len(pids)-1 {
			t.Fatalf("%s holds %d outgoing conns, want %d", p, got, len(pids)-1)
		}
	}
	cancel()
	wg.Wait()
}

// manualNodes builds nodes over one MemNetwork, each with a Manual
// detector it returns beside it.
func manualNodes(t *testing.T, pids ...ident.PID) ([]*Node, []*fd.Manual) {
	t.Helper()
	net := transport.NewMemNetwork()
	var nodes []*Node
	var dets []*fd.Manual
	for _, p := range pids {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		node, err := NewNode(NodeConfig{Self: p, Endpoint: ep, Detector: det})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			node.Close()
			det.Stop()
		})
		nodes, dets = append(nodes, node), append(dets, det)
	}
	return nodes, dets
}

// withAbsent creates group id at p0 and p2 with p1, which never runs: the
// group evicts p1 once both suspect it (AutoEvict).
func withAbsent(t *testing.T, nodes []*Node, id ident.GroupID) []*Group {
	t.Helper()
	var gs []*Group
	for _, n := range nodes {
		g, err := n.Create(id, GroupConfig{InitialView: View{ID: 1, Members: ident.NewPIDs("p0", "p1", "p2")}, AutoEvict: true})
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// waitEvicted waits until every group of gs has excluded p1 from its view.
func waitEvicted(t *testing.T, gs []*Group) {
	t.Helper()
	for _, g := range gs {
		waitCond(t, "p1 evicted", func() bool { return g.View().Members.Equal(ident.NewPIDs("p0", "p2")) })
	}
}

// TestGoroutinesPerGroup: a hosted group costs its engine loop and nothing
// more — its inboxes and its detector subscription are mailboxes that no
// goroutine serves — and a node with a Manual detector starts none.
func TestGoroutinesPerGroup(t *testing.T) {
	const groups = 16
	settled := func() int {
		// Goroutines of earlier tests may still be on their way out.
		n := runtime.NumGoroutine()
		for still := 0; still < 3; {
			time.Sleep(20 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				still++
			} else {
				n, still = m, 0
			}
		}
		return n
	}
	base := settled()
	nodes, _ := manualNodes(t, "p0")
	node := nodes[0]
	if n := settled() - base; n != 0 {
		t.Fatalf("a node started %d goroutines, want 0", n)
	}
	for id := ident.GroupID(1); id <= groups; id++ {
		if _, err := node.Create(id, GroupConfig{InitialView: View{ID: 1, Members: ident.NewPIDs("p0")}}); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(settled()-base) / groups
	t.Logf("%.2f goroutines per group", per)
	if per != 1 {
		t.Fatalf("%d groups cost %.2f goroutines each, want 1", groups, per)
	}
}

// TestGroupCreatedWhileSuspectedEvicts: a group created while the
// detectors already suspect one of its members learns the suspicion from
// its subscription's replay and evicts the member.
func TestGroupCreatedWhileSuspectedEvicts(t *testing.T) {
	nodes, dets := manualNodes(t, "p0", "p2")
	for _, d := range dets {
		d.Suspect("p1")
	}
	waitEvicted(t, withAbsent(t, nodes, 1))
}

// TestLeaveKeepsOtherSubscriptions: one group's Leave ends its own
// detector subscription only; another group on the same nodes still learns
// a later suspicion and acts on it.
func TestLeaveKeepsOtherSubscriptions(t *testing.T) {
	nodes, dets := manualNodes(t, "p0", "p2")
	left := withAbsent(t, nodes, 1)
	stays := withAbsent(t, nodes, 2)
	for _, g := range left {
		g.Leave()
	}
	for _, d := range dets {
		d.Suspect("p1")
	}
	waitEvicted(t, stays)
}
