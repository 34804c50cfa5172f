package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/queue"
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

// ctlLog is the endpoint of a hand-built engine whose change path is driven
// by calling its handlers: it records every control and consensus message
// handed to Send, by destination.
type ctlLog struct {
	transport.Endpoint
	self ident.PID
	sent map[ident.PID][]any
}

func (l *ctlLog) Self() ident.PID { return l.self }

func (l *ctlLog) Send(to ident.PID, _ ident.GroupID, ch transport.Channel, m any) error {
	if ch == transport.Data {
		return nil
	}
	if l.sent == nil {
		l.sent = make(map[ident.PID][]any)
	}
	l.sent[to] = append(l.sent[to], m)
	return nil
}

// to returns what was sent to p so far.
func (l *ctlLog) to(p ident.PID) []any { return l.sent[p] }

// splits reports whether a SplitMsg was sent to anyone.
func (l *ctlLog) splits() bool {
	for _, ms := range l.sent {
		for _, m := range ms {
			if _, ok := m.(SplitMsg); ok {
				return true
			}
		}
	}
	return false
}

// proposed returns the value the engine proposed for ref: the estimate its
// consensus machine sent in round 0 within the proposing turn, the only
// message of the instance that carries a value while no other participant
// answers.
func (l *ctlLog) proposed(t *testing.T, ref ident.ViewRef) StateMsg {
	t.Helper()
	for _, ms := range l.sent {
		for _, m := range ms {
			if cm, ok := m.(consensus.Msg); ok && cm.Instance == viewInstance(ref) && cm.Value != nil {
				st, err := decodeState(cm.Value)
				if err != nil {
					t.Fatalf("proposal for %v: %v", ref, err)
				}
				return st
			}
		}
	}
	t.Fatalf("nothing proposed for %v", ref)
	return StateMsg{}
}

// changeEngine is a hand-built, never-started engine self in view 4 of
// members under tagging, with a manual detector and a consensus machine
// that reaches nobody but the log.
func changeEngine(t *testing.T, self ident.PID, members ident.PIDs, heal bool) (*Engine, *ctlLog, *fd.Manual) {
	log, det := &ctlLog{self: self}, fd.NewManual()
	cfg := Config{Self: self, Endpoint: log, Detector: det, Relation: tagging}
	if heal {
		cfg.Heal = &HealSpec{MergeTimeout: time.Hour}
	}
	e := &Engine{
		cfg: cfg, clock: obs.Wall{},
		cv:        View{ID: 4, Members: members},
		toDeliver: queue.New(cfg.Relation, 0),
		delivered: queue.New(cfg.Relation, 0),
	}
	send := func(to ident.PID, m consensus.Msg) { _ = log.Send(to, 0, transport.Consensus, m) }
	e.cons = consensus.NewMachine(self, send, det, nil)
	e.armPeers()
	t.Cleanup(det.Stop)
	return e, log, det
}

// TestOneQuorumRule: an ordinary change, a split and a merge decide when to
// propose by one rule — on every side, each member that has not declined
// has contributed or is suspected, and the contributors are a majority of
// the side. p1 runs each row: one side is an ordinary change of that view,
// two are a merge of it with a far sub-view.
func TestOneQuorumRule(t *testing.T) {
	ps := ident.NewPIDs
	five, near, far := ps("p1", "p2", "p3", "p4", "p5"), ps("p1", "p2", "p3"), ps("q1", "q2", "q3")
	for _, tc := range []struct {
		name                      string
		sides                     []ident.PIDs
		from, declined, suspected ident.PIDs
		heal                      bool
		want                      string // "waits", "splits" or "proposes"
	}{
		{name: "ordinary majority", sides: []ident.PIDs{five}, from: five, want: "proposes"},
		{name: "ordinary, a live member outstanding", sides: []ident.PIDs{five}, from: ps("p1", "p2", "p3", "p4"), want: "waits"},
		{name: "ordinary, suspected non-contributors skipped", sides: []ident.PIDs{five}, from: near, suspected: ps("p4", "p5"), want: "proposes"},
		{name: "ordinary minority with Heal", sides: []ident.PIDs{five}, from: ps("p1", "p2"), suspected: ps("p3", "p4", "p5"), heal: true, want: "splits"},
		{name: "ordinary minority without Heal", sides: []ident.PIDs{five}, from: ps("p1", "p2"), suspected: ps("p3", "p4", "p5"), want: "waits"},
		{name: "merge majority on both sides", sides: []ident.PIDs{near, ps("q1", "q2")}, from: ps("p1", "p2", "p3", "q1", "q2"), heal: true, want: "proposes"},
		{name: "merge side below majority", sides: []ident.PIDs{near, far}, from: ps("p1", "p2", "p3", "q1"), suspected: ps("q2", "q3"), heal: true, want: "waits"},
		{name: "merge, a suspected non-contributor skipped", sides: []ident.PIDs{near, far}, from: ps("p1", "p2", "p3", "q1", "q2"), suspected: ps("q3"), heal: true, want: "proposes"},
		{name: "merge, a decline shrinks a side", sides: []ident.PIDs{near, far}, from: ps("p1", "p2", "p3", "q1", "q2"), declined: ps("q3"), heal: true, want: "proposes"},
		{name: "merge, a decline leaves a side without majority", sides: []ident.PIDs{near, far}, from: ps("p1", "p2", "p3", "q1"), declined: ps("q2"), suspected: ps("q3"), heal: true, want: "waits"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, log, det := changeEngine(t, "p1", tc.sides[0], tc.heal)
			for _, p := range tc.suspected {
				det.Suspect(p)
			}
			next := ident.ViewRef{ID: e.cv.ID + 1}
			if len(tc.sides) == 1 {
				e.onInit("p1", InitMsg{View: e.cv.ID})
				for _, p := range tc.from {
					e.onPred(p, PredMsg{Change: next})
				}
				if tc.want == "splits" {
					next.Epoch = SplitEpoch(e.cv.Ref(), tc.from)
				}
			} else {
				far := MergeSide{View: 7, Epoch: 9, Members: tc.sides[1]}
				next = mergeRefFor(e.cv.Ref(), far.Ref())
				e.onInit("p1", InitMsg{View: e.cv.ID, Members: tc.sides[0], Far: &far})
				for _, p := range tc.declined {
					e.onPred(p, PredMsg{Change: next, Decline: true})
				}
				for _, p := range tc.from {
					e.onPred(p, PredMsg{Change: next})
				}
			}
			got := "waits"
			switch {
			case e.chg.proposed:
				got = "proposes"
			case log.splits():
				got = "splits"
			}
			if got != tc.want {
				t.Fatalf("%s, want %s", got, tc.want)
			}
			if got != "waits" && !e.chg.awaited[viewInstance(next)] {
				t.Fatalf("%s without awaiting %v", got, next)
			}
		})
	}
}

// TestMergeDeclineCountsOut: an expelled process still answers a merge's
// INIT that names it, with a decline to every other member of the union,
// and a merging member receiving that decline proposes the union without
// the decliner instead of waiting for its suspicion.
func TestMergeDeclineCountsOut(t *testing.T) {
	ps := ident.NewPIDs
	far := MergeSide{View: 7, Epoch: 9, Members: ps("q1", "q2", "q3")}
	ann := InitMsg{View: 4, Members: ps("p1", "p2"), Far: &far}
	ref := mergeRefFor(ann.Ref(), far.Ref())

	expelled, xlog, _ := changeEngine(t, "q3", far.Members, true)
	expelled.terminal = ErrExpelled
	expelled.onCtl(transport.Envelope{From: "q1", Msg: ann})
	decline := PredMsg{Change: ref, Decline: true}
	for _, p := range ps("p1", "p2", "q1", "q2", "q3") {
		want := []any{decline}
		if p == "q3" {
			want = nil
		}
		if got := xlog.to(p); !reflect.DeepEqual(got, want) {
			t.Errorf("the expelled q3 sent %s %v, want %v", p, got, want)
		}
	}

	e, log, _ := changeEngine(t, "p1", ann.Members, true)
	e.onInit("q1", ann)
	for _, p := range ps("p1", "p2", "q1", "q2") {
		e.onPred(p, PredMsg{Change: ref})
	}
	if e.chg.proposed {
		t.Fatal("proposed while q3, unsuspected, had neither contributed nor declined")
	}
	e.onPred("q3", xlog.to("p1")[0].(PredMsg))
	if !e.chg.proposed {
		t.Fatal("q3's decline did not count it out")
	}
	if got, want := ps(log.proposed(t, ref).Members...), ps("p1", "p2", "q1", "q2"); !got.Equal(want) {
		t.Fatalf("proposed union %v, want %v", got, want)
	}
}

// TestViewChangeStartsNoGoroutine: a view change runs on the engine loop
// alone. From the INIT through every PRED to the proposal — whose round-0
// estimate leaves within the turn — no goroutine starts.
func TestViewChangeStartsNoGoroutine(t *testing.T) {
	e, log, _ := changeEngine(t, "p1", ident.NewPIDs("p1", "p2", "p3"), false)
	next := ident.ViewRef{ID: e.cv.ID + 1}
	before := runtime.NumGoroutine()
	e.onInit("p1", InitMsg{View: e.cv.ID})
	for _, p := range e.cv.Members {
		e.onPred(p, PredMsg{Change: next})
	}
	if !e.chg.proposed {
		t.Fatal("every PRED is in, yet the change did not propose")
	}
	log.proposed(t, next)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("the view change started %d goroutines", n-before)
	}
}

// TestStragglerProbeAnsweredWithView: a probe from a member of our view
// that names an older view of another lineage comes from a straggler that
// has not installed our view yet — the union a merge just formed, whose ID
// is one past both sides'. It is answered with our view, not with a second
// merge. A member naming a view no older than ours has diverged, and a
// non-member is the far side of a partition: both are still merged.
func TestStragglerProbeAnsweredWithView(t *testing.T) {
	ps := ident.NewPIDs
	union := View{Epoch: 77, ID: 8, Members: ps("p1", "p2", "q1", "q2")}
	for _, tc := range []struct {
		name  string
		from  ident.PID
		probe ProbeMsg
		merge bool
	}{
		{name: "a union member names its old side", from: "q1", probe: ProbeMsg{View: 7, Epoch: 9, Members: ps("q1", "q2")}},
		{name: "a member diverged at an equal ID", from: "q1", probe: ProbeMsg{View: 8, Epoch: 9, Members: ps("q1", "q2")}, merge: true},
		{name: "a non-member at a lower ID", from: "r1", probe: ProbeMsg{View: 3, Epoch: 9, Members: ps("r1")}, merge: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, log, _ := changeEngine(t, "p1", union.Members, true)
			e.cv = union.Clone()
			e.onProbe(tc.from, tc.probe)
			inits, probes := 0, 0
			for to, ms := range log.sent {
				for _, m := range ms {
					switch m := m.(type) {
					case InitMsg:
						inits++
					case ProbeMsg:
						if to != tc.from || m.Ref() != union.Ref() {
							t.Errorf("probe %v sent to %s", m, to)
						}
						probes++
					}
				}
			}
			if tc.merge && (inits == 0 || probes != 0) {
				t.Fatalf("%d INITs and %d probes sent, want a merge", inits, probes)
			}
			if !tc.merge && (inits != 0 || probes != 1) {
				t.Fatalf("%d INITs and %d probes sent, want one probe back and no INIT", inits, probes)
			}
		})
	}
}

// TestDecidedFlushRepurged: a proposal repurges the flush it assembles. a
// multicast a:6 and then a:7 with the same tag; b delivered a:6, c holds
// a:7 (a:6 purged there), and a has crashed. Once b's and c's pred sets are
// in, the ordinary change proposes a:7 alone — a:7 covers a:6 — and so does
// the split a minority declares.
func TestDecidedFlushRepurged(t *testing.T) {
	ps := ident.NewPIDs
	for _, tc := range []struct {
		name               string
		members, suspected ident.PIDs
		heal               bool
	}{
		{name: "ordinary change", members: ps("a", "b", "c"), suspected: ps("a")},
		{name: "split", members: ps("a", "b", "c", "d", "e"), suspected: ps("a", "d", "e"), heal: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, log, det := changeEngine(t, "b", tc.members, tc.heal)
			for _, p := range tc.suspected {
				det.Suspect(p)
			}
			a := tagged(4, "a", 0, 0, 0, 0, 0, 2, 2) // a:7 lists a:6
			e.delivered.ForceAppend(a[5])
			e.onInit("b", InitMsg{View: e.cv.ID})
			for _, m := range log.to("b") {
				if pred, ok := m.(PredMsg); ok {
					e.onPred("b", pred)
				}
			}
			e.onPred("c", PredMsg{Change: ident.ViewRef{ID: e.cv.ID + 1}, Msgs: []DataMsg{msgOf(&a[6])}})

			next := ident.ViewRef{ID: e.cv.ID + 1}
			if tc.heal {
				next.Epoch = SplitEpoch(e.cv.Ref(), ps("b", "c"))
			}
			if got := ids(log.proposed(t, next).Backlog); !reflect.DeepEqual(got, []string{"a:7@4"}) {
				t.Fatalf("proposed flush %v, want [a:7@4]", got)
			}
		})
	}
}

// TestDecodeValueRejectsGarbage: the decided value is a StateMsg. A decision
// whose bytes do not decode, or decode to another registered type, counts
// one DecisionFailures and installs nothing; a StateMsg installs.
func TestDecodeValueRejectsGarbage(t *testing.T) {
	e, _, _ := changeEngine(t, "p1", ident.NewPIDs("p1", "p2"), false)
	e.onInit("p1", InitMsg{View: e.cv.ID})
	ref := ident.ViewRef{ID: e.cv.ID + 1}
	credit, err := codec.Marshal(nil, CreditMsg{View: ref.ID, Credits: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range [][]byte{[]byte("garbage"), nil, credit} {
		e.onDecision(consensus.Decision{Instance: viewInstance(ref), Value: raw})
		if n := e.stats.DecisionFailures; n != uint64(i+1) || e.cv.ID != 4 || e.chg == nil {
			t.Fatalf("decision %q: %d failures, view %d, blocked %v; want %d, view 4, still blocked",
				raw, n, e.cv.ID, e.chg != nil, i+1)
		}
	}
	st, err := codec.Marshal(nil, StateMsg{View: ref.ID, Members: []ident.PID{"p1", "p2"}})
	if err != nil {
		t.Fatal(err)
	}
	e.onDecision(consensus.Decision{Instance: viewInstance(ref), Value: st})
	if e.cv.Ref() != ref || e.chg != nil || e.stats.DecisionFailures != 3 {
		t.Fatalf("a StateMsg decision left view %v, blocked %v, %d failures", e.cv.Ref(), e.chg != nil, e.stats.DecisionFailures)
	}
}
