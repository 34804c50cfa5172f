package core

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// lockedBuf is a bytes.Buffer safe to read while a slog handler writes.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestNodeObservability runs a 3-node group with a full obs bundle per
// node and checks the whole surface at once: per-group labelled counters,
// purge activity under an enumeration relation, the view gauge following
// an installed view change, heartbeat instruments, delivery-latency
// samples, and the view_install structured event. Metrics()/Stats() are
// polled concurrently with the protocol loops throughout, so -race covers
// snapshotting against live instruments. The heartbeats run on one fake
// clock that moves a single interval, so every node beats once and none
// can suspect a peer however long the scheduler keeps it waiting: a false
// suspicion would let the view change leave a member out.
func TestNodeObservability(t *testing.T) {
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("n0", "n1", "n2")
	view0 := View{ID: 1, Members: pids}
	const gid = ident.GroupID(7)
	const beat = 10 * time.Millisecond
	beats := obs.NewFake(time.Unix(0, 0))

	type bundle struct {
		node *Node
		g    *Group
		reg  *obs.Registry
		buf  *lockedBuf
	}
	nodes := make(map[ident.PID]*bundle)
	for _, p := range pids {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		buf := &lockedBuf{}
		logger := slog.New(slog.NewJSONHandler(buf, nil))
		node, err := NewNode(NodeConfig{
			Self:      p,
			Endpoint:  ep,
			Heartbeat: fd.HeartbeatOptions{Interval: beat, Obs: obs.New(beats, reg, logger)},
			Obs:       obs.New(nil, reg, logger),
		})
		if err != nil {
			t.Fatal(err)
		}
		g, err := node.Create(gid, GroupConfig{
			InitialView: view0,
			Relation:    obsolete.KEnumeration{K: 4},
			Window:      8,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = &bundle{node: node, g: g, reg: reg, buf: buf}
	}
	defer func() {
		for _, b := range nodes {
			b.node.Close()
		}
	}()

	// Hammer the read-side facades while the protocol runs.
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	for _, b := range nodes {
		hammer.Add(1)
		go func(b *bundle) {
			defer hammer.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = b.node.Metrics()
				_ = b.g.Stats()
				_ = b.g.View()
			}
		}(b)
	}
	defer func() { close(stop); hammer.Wait() }()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", desc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	key := func(name string) string { return fmt.Sprintf("%s{group=%d}", name, gid) }

	// One beat from every node, each to the peers its group watches; five
	// would be a timeout.
	beats.BlockUntil(len(pids))
	beats.Advance(beat)
	for _, p := range pids {
		waitFor(fmt.Sprintf("a beat from %s", p), func() bool {
			return nodes[p].reg.Snapshot().Counters["fd_beats_sent_total"] > 0
		})
	}

	// Multicast a chain where each message obsoletes its predecessor; no
	// application delivers yet, so arrivals must purge queued entries to
	// keep the sender's window refilling (the SVS core claim).
	tr := obsolete.NewEnumTracker(4)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	const msgs = 12
	for i := 0; i < msgs; i++ {
		var seq ident.Seq
		var annot []byte
		if prev := tr.Seq(); prev > 0 {
			seq, annot = tr.Next(prev)
		} else {
			seq, annot = tr.Next()
		}
		if _, err := nodes["n0"].g.Multicast(ctx, obsolete.Msg{Sender: "n0", Seq: seq, Annot: annot}, []byte("x")); err != nil {
			t.Fatalf("multicast %d: %v", seq, err)
		}
	}

	snap0 := nodes["n0"].reg.Snapshot()
	if got := snap0.Counters[key("engine_multicast_total")]; got != msgs {
		t.Fatalf("engine_multicast_total = %d, want %d (keys %v)", got, msgs, snap0.Counters)
	}
	// The receivers purge obsoleted entries as later messages arrive.
	waitFor("purge activity at n1", func() bool {
		return nodes["n1"].reg.Snapshot().Gauges[key("engine_purged_todeliver")] > 0
	})

	// A membership-preserving view change: every node's view gauge must
	// follow the install, and the change must be timed.
	if err := nodes["n0"].g.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pids {
		b := nodes[p]
		waitFor(fmt.Sprintf("%s installing view 2", p), func() bool {
			return b.reg.Snapshot().Gauges[key("engine_view")] == 2
		})
	}
	snap0 = nodes["n0"].reg.Snapshot()
	if got := snap0.Counters[key("engine_views_installed_total")]; got != 1 {
		t.Fatalf("engine_views_installed_total = %d, want 1", got)
	}
	if h := snap0.Histograms[key("engine_view_change_seconds")]; h.Count != 1 {
		t.Fatalf("engine_view_change_seconds count = %d, want 1", h.Count)
	}

	// One more message, in the new view: it reaches every member over the
	// data path, so its delivery is timed. The chain's survivor may have
	// reached n1 only through the view change's flush, which carries no
	// enqueue stamp.
	seq, annot := tr.Next(tr.Seq())
	if _, err := nodes["n0"].g.Multicast(ctx, obsolete.Msg{Sender: "n0", Seq: seq, Annot: annot}, []byte("y")); err != nil {
		t.Fatalf("multicast %d: %v", seq, err)
	}

	// Drain deliveries: the survivors of the purge chain, the view marker
	// and the new message. Latency samples must appear once data is handed
	// over.
	for _, p := range pids {
		b := nodes[p]
		go func() {
			for {
				if _, err := b.g.Deliver(ctx); err != nil {
					return
				}
			}
		}()
		waitFor(fmt.Sprintf("%s delivering data", p), func() bool {
			return b.reg.Snapshot().Counters[key("engine_delivered_total")] >= 1
		})
	}
	waitFor("delivery-latency samples at n1", func() bool {
		return nodes["n1"].reg.Snapshot().Histograms[key("engine_deliver_latency_seconds")].Count > 0
	})
	snap1 := nodes["n1"].reg.Snapshot()
	// The heartbeat records under the same registry, unlabelled by group.
	if snap1.Counters["fd_beats_sent_total"] == 0 {
		t.Fatal("heartbeat sent no beats")
	}
	if _, ok := snap1.Gauges["fd_suspected{peer=n0}"]; !ok {
		t.Fatalf("no per-peer heartbeat gauge: %v", snap1.Gauges)
	}

	// Structured events: the install must have been logged with the group
	// label attached by the derived bundle.
	waitFor("view_install event at n2", func() bool {
		s := nodes["n2"].buf.String()
		return strings.Contains(s, `"msg":"view_install"`) && strings.Contains(s, `"group":"7"`)
	})
}
