package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// metricScenario is one registry watching a whole small deployment after it
// has gone quiet: four memnet nodes in group 7 (three founders and a
// joiner; n2 sends through a fault controller) and a TCP pair in group 8.
type metricScenario struct {
	reg    *obs.Registry
	groups map[string]*Group // by node label
	mems   map[string]*transport.MemEndpoint
	tcps   map[string]*transport.TCPNetwork
	faults *transport.Faults
}

// runMetricScenario drives, from one seed, everything that puts a metric
// in the registry: traffic under a purging relation with stability
// tracking, an injected delay fault, a view change, a join with its state
// transfer, a forged sender, an envelope for a group nobody hosts, and the
// same over real sockets with the node-owned heartbeat.
func runMetricScenario(t *testing.T) *metricScenario {
	t.Helper()
	sc := &metricScenario{
		reg:    obs.NewRegistry(),
		groups: make(map[string]*Group),
		mems:   make(map[string]*transport.MemEndpoint),
		tcps:   make(map[string]*transport.TCPNetwork),
	}
	root := obs.New(nil, sc.reg, nil)
	rng := rand.New(rand.NewSource(19))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	gc := GroupConfig{
		Relation:          obsolete.KEnumeration{K: 8},
		Window:            8,
		StabilityInterval: 5 * time.Millisecond,
	}
	consume := func(g *Group) {
		go func() {
			for {
				if _, err := g.Deliver(ctx); err != nil {
					return
				}
			}
		}()
	}
	// send multicasts, in g's name, n updates of items drawn from the
	// first `items` ones.
	send := func(g *Group, tr *obsolete.ItemTracker, n, items int) {
		t.Helper()
		for i := 0; i < n; i++ {
			seq, annot := tr.Update(uint32(rng.Intn(items)))
			if _, err := g.Multicast(ctx, obsolete.Msg{Sender: g.Self(), Seq: seq, Annot: annot}, []byte("x")); err != nil {
				t.Fatalf("%s multicast %d: %v", g.Self(), seq, err)
			}
		}
	}
	newTracker := func() *obsolete.ItemTracker { return obsolete.NewItemTracker(obsolete.NewKTracker(8)) }

	// ---- memnet: n0 n1 n2, later n3 ----
	net := transport.NewMemNetwork()
	faults := transport.NewFaults(19)
	faults.Instrument(root)
	sc.faults = faults
	memNode := func(p ident.PID) *Node {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		sc.mems[string(p)] = ep
		var end transport.Endpoint = ep
		if p == "n2" {
			end = faults.Wrap(ep)
		}
		det := fd.NewManual()
		node, err := NewNode(NodeConfig{Self: p, Endpoint: end, Detector: det, Obs: root.With(obs.L("node", string(p)))})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			node.Close()
			det.Stop()
		})
		return node
	}
	founders := ident.NewPIDs("n0", "n1", "n2")
	gc.InitialView = View{ID: 1, Members: founders}
	for _, p := range founders {
		g, err := memNode(p).Create(7, gc)
		if err != nil {
			t.Fatal(err)
		}
		sc.groups[string(p)] = g
	}
	// Nobody consumes yet and every update obsoletes the one before it:
	// the receivers must purge to keep n0's window refilling.
	tr0, tr2 := newTracker(), newTracker()
	send(sc.groups["n0"], tr0, 12, 1)
	for _, p := range founders {
		waitCond(t, "purging at "+string(p), func() bool { return sc.groups[string(p)].Stats().PurgedToDeliver > 0 })
		consume(sc.groups[string(p)])
	}
	send(sc.groups["n0"], tr0, 100, 6)
	faults.Delay("n2", "n0", time.Millisecond)
	send(sc.groups["n2"], tr2, 10, 6)
	faults.Heal()

	if err := sc.groups["n0"].RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range founders {
		waitCond(t, "view 2 at "+string(p), func() bool { return sc.groups[string(p)].Stats().View == 2 })
	}
	send(sc.groups["n0"], tr0, 30, 6)

	jg, err := memNode("n3").Join(7, gc, "n1")
	if err != nil {
		t.Fatal(err)
	}
	sc.groups["n3"] = jg
	consume(jg)
	for p, g := range sc.groups {
		waitCond(t, "view 3 at "+p, func() bool { return g.Stats().View == 3 })
	}
	send(sc.groups["n0"], tr0, 30, 6)

	evil, err := net.Endpoint("evil")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { evil.Close() })
	forged := DataMsg{View: 3, Meta: obsolete.Msg{Sender: "ghost", Seq: 1}, Payload: []byte("forged")}
	if err := evil.Send("n0", 7, transport.Data, forged); err != nil {
		t.Fatal(err)
	}
	if err := evil.Send("n0", 99, transport.Data, forged); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "forgery and stray envelope dropped at n0", func() bool {
		return sc.reg.Snapshot().Counters["engine_dropped_total{group=7,node=n0,reason=unknown_sender}"] == 1 &&
			sc.mems["n0"].Drops().DroppedUnknownGroup == 1
	})

	// ---- TCP: t0 t1, instrumented by the Nodes hosting them ----
	pair := ident.NewPIDs("t0", "t1")
	for _, p := range pair {
		n, err := transport.NewTCPNetwork(p, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		sc.tcps[string(p)] = n
	}
	sc.tcps["t0"].AddPeer("t1", sc.tcps["t1"].Addr())
	sc.tcps["t1"].AddPeer("t0", sc.tcps["t0"].Addr())
	gc.InitialView = View{ID: 1, Members: pair}
	for _, p := range pair {
		node, err := NewNode(NodeConfig{
			Self:      p,
			Endpoint:  sc.tcps[string(p)],
			Heartbeat: fd.HeartbeatOptions{Interval: 25 * time.Millisecond},
			Obs:       root.With(obs.L("node", string(p))),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		g, err := node.Create(8, gc)
		if err != nil {
			t.Fatal(err)
		}
		sc.groups[string(p)] = g
		consume(g)
	}
	send(sc.groups["t0"], newTracker(), 60, 6)
	if err := sc.tcps["t0"].Send("t1", 99, transport.Data, forged); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "stray envelope dropped at t1", func() bool { return sc.tcps["t1"].Stats().Drops.DroppedUnknownGroup == 1 })

	// Quiet: every message is delivered or purged everywhere and stability
	// has pruned what it will, so no engine counter moves any more (the
	// wire counters never rest: the TCP pair's heartbeat keeps beating).
	quiet, last := 0, sc.engineStats()
	waitCond(t, "the engines going quiet", func() bool {
		time.Sleep(20 * time.Millisecond)
		now := sc.engineStats()
		if now == last {
			quiet++
		} else {
			quiet, last = 0, now
		}
		return quiet >= 5
	})
	return sc
}

// engineStats renders every group's Stats, sorted by node.
func (sc *metricScenario) engineStats() string {
	var b strings.Builder
	for _, p := range sortedKeys(sc.groups) {
		fmt.Fprintf(&b, "%s %+v\n", p, sc.groups[p].Stats())
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// snapshotKeys returns every key of snap, sorted, prefixed by its section.
func snapshotKeys(snap obs.Snapshot) []string {
	var keys []string
	for k := range snap.Counters {
		keys = append(keys, "counter "+k)
	}
	for k := range snap.Gauges {
		keys = append(keys, "gauge "+k)
	}
	for k := range snap.Histograms {
		keys = append(keys, "histogram "+k)
	}
	sort.Strings(keys)
	return keys
}

// documentedMetrics parses README's "Metric catalogue" table: every
// back-quoted name in it, labels stripped.
func documentedMetrics(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut(string(readme), "**Metric catalogue**")
	if !found {
		t.Fatal(`README.md has no "**Metric catalogue**" table`)
	}
	name := regexp.MustCompile("`([a-z0-9_]+)(\\{[^`]*\\})?`")
	names := make(map[string]bool)
	for _, line := range strings.Split(rest, "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			if len(names) > 0 {
				break // the table is over
			}
			continue
		}
		for _, m := range name.FindAllStringSubmatch(line, -1) {
			names[m[1]] = true
		}
	}
	return names
}

func bareName(key string) string {
	name, _, _ := strings.Cut(key, "{")
	return name
}

// TestMetricCatalogueDocumented: every metric the scenario leaves in the
// registry is a row of README's catalogue, and every row of the engine's
// export table is in the registry under each engine's labels.
func TestMetricCatalogueDocumented(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration skipped in -short mode")
	}
	sc := runMetricScenario(t)
	snap := sc.reg.Snapshot()
	documented := documentedMetrics(t)
	undocumented := make(map[string]bool)
	for _, key := range snapshotKeys(snap) {
		if name := bareName(strings.Fields(key)[1]); !documented[name] {
			undocumented[name] = true
		}
	}
	if len(undocumented) > 0 {
		t.Errorf("metrics missing from README's catalogue: %v", sortedKeys(undocumented))
	}
	for _, row := range statsExport {
		for node, g := range sc.groups {
			key := engineKey(row.name, g.ID(), node, row.labels)
			_, isCounter := snap.Counters[key]
			_, isGauge := snap.Gauges[key]
			if isCounter == isGauge || isGauge != (row.kind == obs.KindGauge) {
				t.Errorf("export row %s: counter %v, gauge %v in the snapshot", key, isCounter, isGauge)
			}
		}
	}
}

// engineKey is the registry key of one export row of group gid at node.
func engineKey(name string, gid ident.GroupID, node string, extra []obs.Label) string {
	key := fmt.Sprintf("%s{group=%d,node=%s", name, gid, node)
	for _, l := range extra {
		key += "," + l.Key + "=" + l.Value // every extra label sorts after "node"
	}
	return key + "}"
}

// TestRegistryMatchesStats: once the scenario is quiet the registry says
// what the facades say, value for value, and its key set is the one the
// same scenario produced before the engine's counters moved out of the
// registry.
func TestRegistryMatchesStats(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration skipped in -short mode")
	}
	sc := runMetricScenario(t)

	// The heartbeat keeps the wire counters moving: compare against a
	// snapshot that no facade value changed across.
	type facades struct {
		engines map[string]Stats
		wires   map[string]transport.TCPStats
		drops   map[string]transport.DropStats
		faults  transport.FaultStats
	}
	read := func() facades {
		f := facades{map[string]Stats{}, map[string]transport.TCPStats{}, map[string]transport.DropStats{}, sc.faults.Stats()}
		for node, g := range sc.groups {
			f.engines[node] = g.Stats()
		}
		for node, n := range sc.tcps {
			f.wires[node] = n.Stats()
			f.drops[node] = f.wires[node].Drops
		}
		for node, ep := range sc.mems {
			f.drops[node] = ep.Drops()
		}
		return f
	}
	var (
		now  facades
		snap obs.Snapshot
	)
	waitCond(t, "a snapshot between two equal facade reads", func() bool {
		now = read()
		snap = sc.reg.Snapshot()
		return reflect.DeepEqual(now, read())
	})

	for node, st := range now.engines {
		for _, row := range statsExport {
			key := engineKey(row.name, sc.groups[node].ID(), node, row.labels)
			got := snap.Counters[key]
			if row.kind == obs.KindGauge {
				got = uint64(snap.Gauges[key])
			}
			if want := row.get(&st); got != want {
				t.Errorf("%s = %d, Stats says %d", key, got, want)
			}
		}
	}
	for node, st := range now.wires {
		for name, want := range map[string]uint64{
			"tcp_frames_sent_total": st.FramesSent, "tcp_envelopes_sent_total": st.EnvelopesSent,
			"tcp_bytes_sent_total": st.BytesSent, "tcp_frames_recv_total": st.FramesRecv,
			"tcp_envelopes_recv_total": st.EnvelopesRecv,
		} {
			key := fmt.Sprintf("%s{node=%s}", name, node)
			if got := snap.Counters[key]; got != want || want == 0 {
				t.Errorf("%s = %d, TCPStats says %d (and must not be 0)", key, got, want)
			}
		}
	}
	for node, d := range now.drops {
		for reason, want := range map[obs.DropReason]uint64{
			obs.DropUnknownGroup: d.DroppedUnknownGroup, obs.DropUnknownChannel: d.DroppedUnknownChannel,
		} {
			key := fmt.Sprintf("transport_dropped_total{node=%s,reason=%s}", node, reason)
			if got := snap.Counters[key]; got != want {
				t.Errorf("%s = %d, Drops says %d", key, got, want)
			}
		}
	}
	f := now.faults
	for kind, want := range map[transport.FaultKind]uint64{
		transport.FaultPartition: f.Partitioned, transport.FaultDrop: f.Dropped, transport.FaultDelay: f.Delayed,
		transport.FaultDuplicate: f.Duplicated,
	} {
		key := fmt.Sprintf("transport_faults_total{kind=%s}", kind)
		if got, ok := snap.Counters[key]; !ok || got != want {
			t.Errorf("%s = %d (present %v), FaultStats says %d", key, got, ok, want)
		}
	}

	// The scenario has to have moved what it is there to move.
	n0 := now.engines["n0"]
	for what, moved := range map[string]bool{
		"forged sender dropped at n0":  n0.DroppedUnknownSender == 1,
		"two views installed at n0":    n0.ViewsInstalled == 2,
		"history pruned at n0":         n0.StablePruned > 0,
		"state transfer sent by n0":    n0.JoinBytesSent > 0,
		"state transfer received (n3)": now.engines["n3"].JoinBytesRecv > 0,
		"delivery queue purged at n1":  now.engines["n1"].PurgedToDeliver > 0,
		"delay fault injected":         snap.Counters["transport_faults_total{kind=delay}"] > 0,
	} {
		if !moved {
			t.Errorf("the scenario left uncounted: %s", what)
		}
	}

	// testdata/parent_metric_keys.txt is snapshotKeys of this scenario at
	// commit 055b88f, the parent of the change that made the registry read
	// Stats: no metric was renamed, relabelled or changed kind. One key was
	// dropped since, by the PR 21 change that made a change's awaitDecision
	// the only path from consensus into the loop:
	// engine_decisions_ignored_total{reason=duplicate} counted the second
	// report of every installed decision (Propose's beside Await's), and
	// nothing reports a decision twice any more. One key was added since,
	// by the change that clamps a peer's credits at its window:
	// engine_dropped_total{reason=excess_credit} counts the grants that
	// would have lifted them past it, which only a buggy or hostile member
	// sends. And one by the change that bounds the parked admission
	// requests: engine_dropped_total{reason=join_overflow} counts the
	// requests past the cap. Two more by the change that bounds what a
	// peer can make a consensus machine keep:
	// consensus_dropped_total{reason=instance_overflow} and
	// {reason=inbox_overflow} count the instances it forgets past its cap
	// on those it never proposed to, and the messages it drops past its
	// cap on one instance's buffer. One more was dropped with
	// Faults.Crash, which nothing called: transport_faults_total{kind=crash}.
	// And one was added by the change that makes a receiver enforce the
	// credits it grants: engine_dropped_total{reason=overspent} counts the
	// data arrivals beyond them, which only a buggy or hostile member sends.
	parent, err := os.ReadFile("testdata/parent_metric_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(snapshotKeys(snap), "\n") + "\n"; got != string(parent) {
		t.Errorf("key set differs from the parent's; got:\n%s", got)
	}
}

// TestSharedBundleSums: two engines whose bundles carry the same labels
// report under one key, and their counters add up there.
func TestSharedBundleSums(t *testing.T) {
	reg := obs.NewRegistry()
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("a", "b")
	groups := make(map[ident.PID]*Group)
	for _, p := range pids {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		node, err := NewNode(NodeConfig{Self: p, Endpoint: ep, Detector: det, Obs: obs.New(nil, reg, nil)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			node.Close()
			det.Stop()
		})
		if groups[p], err = node.Create(1, GroupConfig{InitialView: View{ID: 1, Members: pids}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i, p := range pids {
		for seq := 1; seq <= 3+i; seq++ {
			if _, err := groups[p].Multicast(ctx, obsolete.Msg{Sender: p, Seq: ident.Seq(seq)}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["engine_multicast_total{group=1}"]; got != 7 {
		t.Errorf("engine_multicast_total{group=1} = %d, want 3 + 4", got)
	}
	if got := snap.Gauges["engine_members{group=1}"]; got != 2 {
		t.Errorf("engine_members{group=1} = %d, want 2 (a gauge does not add up)", got)
	}
}

// TestRegistryDoesNotRetainEngine: the registry's source reads the
// published snapshot and nothing else of the engine, so an engine that was
// stopped and dropped is collected while the registry — and the engine's
// last counts in it — live on.
func TestRegistryDoesNotRetainEngine(t *testing.T) {
	reg := obs.NewRegistry()
	collected := make(chan struct{})
	func() {
		net := transport.NewMemNetwork()
		ep, err := net.Endpoint("solo")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		det := fd.NewManual()
		defer det.Stop()
		eng, err := start(config{
			Self: "solo", Endpoint: ep, Detector: det, Obs: obs.New(nil, reg, nil),
			GroupConfig: GroupConfig{InitialView: View{ID: 1, Members: ident.NewPIDs("solo")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Multicast(context.Background(), obsolete.Msg{Sender: "solo", Seq: 1}, nil); err != nil {
			t.Fatal(err)
		}
		eng.stop()
		runtime.SetFinalizer(eng, func(*Engine) { close(collected) })
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			if got := reg.Snapshot().Counters["engine_multicast_total"]; got != 1 {
				t.Fatalf("engine_multicast_total = %d after the engine was collected, want 1", got)
			}
			return
		case <-deadline:
			t.Fatal("the stopped engine is still reachable (from the registry?)")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestEndTurnRefreshesGauges: the gauges of Stats are the value's own. A
// member of view 4 commits two messages and delivers one, then blocks for
// a change and parks a third multicast; the end of the turn, with no
// engine to publish it, leaves its counters describing all of that.
func TestEndTurnRefreshesGauges(t *testing.T) {
	members := ident.NewPIDs("me", "p1", "p2")
	cfg := config{Self: "me", Endpoint: &sendLog{discard: true}, GroupConfig: GroupConfig{Relation: obsolete.Empty{}}}
	s := newViewState(&cfg, View{ID: 4, Members: members}, cfg.Endpoint)
	s.cons = undecided{}
	in := func(from ident.PID, msg any) {
		step(&s, event{from: from, msg: msg, now: time.Unix(1, 0), detector: suspects(nil)})
	}
	multicast := func(seqs ...ident.Seq) *request {
		req := &request{kind: reqMulticast}
		for _, q := range seqs {
			req.batch = append(req.batch, OutMsg{Meta: obsolete.Msg{Sender: "me", Seq: q}})
		}
		in("", req)
		return req
	}
	multicast(1, 2)
	deliver := &request{kind: reqDeliver}
	deliver.dst = deliver.oneD[:]
	in("", deliver)
	s.endTurn()
	in("p1", InitMsg{View: View{ID: 4}})
	parked := multicast(3)
	s.endTurn()
	if deliver.res.n != 1 || len(s.multicastQ) != 1 || s.multicastQ[0] != parked {
		t.Fatalf("delivered %d and parked %d; want 1 and the third multicast", deliver.res.n, len(s.multicastQ))
	}
	got := s.stats
	want := Stats{View: 4, Members: 3, ToDeliverLen: 1, ToDeliverMax: 2, HistoryLen: 1, Parked: 1, LastSent: 2, Blocked: true}
	got.Multicast, got.Delivered, got.MulticastParks = 0, 0, 0 // counters, not gauges
	if got != want {
		t.Fatalf("after the turn: %+v\nwant gauges %+v", got, want)
	}
}
