package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// TestOneDecisionPerChange: a view change's decision enters the loop once.
// Ten changes in a three-member group install ten views at every member and
// leave nothing for any member to ignore — no second report of a decision
// it installed, no straggler from a change that already ended.
func TestOneDecisionPerChange(t *testing.T) {
	const changes = 10
	net := transport.NewMemNetwork()
	view0 := View{ID: 1, Members: ident.NewPIDs("p0", "p1", "p2")}
	reg := obs.NewRegistry()
	engs := map[ident.PID]*Engine{}
	for _, p := range view0.Members {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		eng, err := New(Config{
			Self: p, Endpoint: ep, Detector: det, InitialView: view0,
			Obs: obs.New(nil, reg, nil).With(obs.L("node", string(p))),
		})
		if err != nil {
			t.Fatal(err)
		}
		engs[p] = eng
		t.Cleanup(func() {
			eng.Stop()
			det.Stop()
			ep.Close()
		})
	}
	for _, eng := range engs {
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= changes; i++ {
		if err := engs["p0"].RequestViewChange(); err != nil {
			t.Fatal(err)
		}
		want := view0.ID + ident.ViewID(i)
		waitCond(t, fmt.Sprintf("view %d everywhere", want), func() bool {
			for _, eng := range engs {
				if eng.Stats().View < want {
					return false
				}
			}
			return true
		})
	}

	// engine_decisions_ignored_total of p, summed over every reason.
	ignored := func(p ident.PID) uint64 {
		var n uint64
		for key, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(key, "engine_decisions_ignored_total{") && strings.Contains(key, "node="+string(p)+",") {
				n += v
			}
		}
		return n
	}
	// A second report of the last decision lands right behind its install:
	// give it that long before reading.
	for settle := time.Now().Add(300 * time.Millisecond); time.Now().Before(settle); time.Sleep(5 * time.Millisecond) {
		if ignored("p0")+ignored("p1")+ignored("p2") > 0 {
			break
		}
	}
	for _, p := range view0.Members {
		if n := engs[p].Stats().ViewsInstalled; n != changes {
			t.Errorf("%s installed %d views, want %d", p, n, changes)
		}
		if n := ignored(p); n != 0 {
			t.Errorf("%s ignored %d decisions, want 0", p, n)
		}
	}
}

// TestProbeExpulsionEntersView: a straggler the group evicted while it was
// cut off learns so from a probe — a newer view of its own lineage without
// it — and enters that view as the decision would have made it: the
// expelled notification names the view, View and Stats name it too, the
// change the straggler was blocked in ends, and a parked multicast fails
// with ErrExpelled.
func TestProbeExpulsionEntersView(t *testing.T) {
	net := transport.NewMemNetwork()
	view0 := View{ID: 1, Members: ident.NewPIDs("p0", "p1", "p2")}
	eps := map[ident.PID]*transport.MemEndpoint{}
	for _, p := range view0.Members {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		eps[p] = ep
		t.Cleanup(func() { ep.Close() })
	}
	det := fd.NewManual()
	t.Cleanup(det.Stop)
	straggler, err := New(Config{Self: "p2", Endpoint: eps["p2"], Detector: det, InitialView: view0, Heal: &HealSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := straggler.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(straggler.Stop)

	// p0 opens a view change the straggler joins at t5 and that never
	// completes: p0 and p1 run no engine to answer it.
	if err := eps["p0"].Send("p2", 0, transport.Ctl, InitMsg{View: view0.ID}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "straggler blocked", func() bool { return straggler.Stats().Blocked })
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	parked := make(chan error, 1)
	go func() {
		_, err := straggler.Multicast(ctx, obsolete.Msg{Sender: "p2", Seq: 1}, nil)
		parked <- err
	}()
	waitCond(t, "multicast parked", func() bool { return straggler.Stats().Parked == 1 })

	evicted := View{ID: 3, Members: ident.NewPIDs("p0", "p1")}
	if err := eps["p0"].Send("p2", 0, transport.Ctl, ProbeMsg{View: evicted.ID, Epoch: evicted.Epoch, Members: evicted.Members}); err != nil {
		t.Fatal(err)
	}
	d, err := straggler.Deliver(ctx)
	if err != nil || d.Kind != DeliverExpelled || d.NewView.Ref() != evicted.Ref() || !d.NewView.Members.Equal(evicted.Members) {
		t.Fatalf("delivered %+v (%v), want the expulsion by %v", d, err, evicted)
	}
	if err := <-parked; !errors.Is(err, ErrExpelled) {
		t.Errorf("parked multicast: %v, want ErrExpelled", err)
	}
	if v := straggler.View(); v.Ref() != evicted.Ref() || !v.Members.Equal(evicted.Members) {
		t.Errorf("View() = %v, want %v", v, evicted)
	}
	if st := straggler.Stats(); st.View != evicted.ID || st.Blocked {
		t.Errorf("Stats: view %d, blocked %v; want view %d, unblocked", st.View, st.Blocked, evicted.ID)
	}
}
