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

// stepper drives one process's view-change state with events and keeps
// what it did, with no engine: the stepper is the state's outlet and
// consensus machine, and keeps its sends, its proposals, the decisions it
// asked for and its installs, in order, in fx. Its machine decides nothing.
// It starts in view 4 of members, under tagging.
type stepper struct {
	undecided
	s         viewState
	suspected ident.PIDs
	fx        []any
}

// sendTo is a send the stepper's state made: msg to each of to.
type sendTo struct {
	to  ident.PIDs
	msg any
}

// proposed and asked are what the stepper's state asked of its consensus
// machine: a proposal of val, and the decision of instance id.
type (
	proposed struct{ val StateMsg }
	asked    struct{ id string }
)

func newStepper(self ident.PID, members ident.PIDs, heal bool) *stepper {
	st := &stepper{}
	cfg := config{Self: self, GroupConfig: GroupConfig{Relation: tagging, Heal: heal}}
	st.s = newViewState(&cfg, View{ID: 4, Members: members}, st)
	st.s.cons = st
	return st
}

func (st *stepper) Propose(_ string, _ ident.PIDs, value []byte) ([]consensus.Decision, error) {
	val, err := decodeState(value)
	st.fx = append(st.fx, proposed{val})
	return nil, err
}

func (st *stepper) Decided(id string) ([]byte, bool) {
	st.fx = append(st.fx, asked{id})
	return nil, false
}

// undecided is a consensus machine that never decides.
type undecided struct{}

func (undecided) Propose(string, ident.PIDs, []byte) ([]consensus.Decision, error) { return nil, nil }
func (undecided) Decided(string) ([]byte, bool)                                    { return nil, false }
func (undecided) Receive(ident.PID, consensus.Msg) []consensus.Decision            { return nil }
func (undecided) Recheck() []consensus.Decision                                    { return nil }

// injector is consensus machine m with a test's hand on it: a consensus
// message from nobody is the decision of its instance on its value, as if
// m had decided it. Every other call is m's.
type injector struct{ machine }

func (c injector) Receive(from ident.PID, m consensus.Msg) []consensus.Decision {
	if from == "" {
		return []consensus.Decision{{Instance: m.Instance, Value: m.Value}}
	}
	return c.machine.Receive(from, m)
}

func (st *stepper) feed(from ident.PID, msg any) {
	for _, f := range step(&st.s, event{from: from, msg: msg, now: exploreNow, detector: suspects(st.suspected)}) {
		st.fx = append(st.fx, f)
	}
}

// tickAt steps protocol time to now.
func (st *stepper) tickAt(now time.Time) {
	for _, f := range step(&st.s, event{msg: tick{}, now: now, detector: suspects(st.suspected)}) {
		st.fx = append(st.fx, f)
	}
}

// Send makes the stepper its state's outlet.
func (st *stepper) Send(to ident.PID, _ ident.GroupID, _ transport.Channel, msg any) error {
	st.fx = append(st.fx, sendTo{ident.PIDs{to}, msg})
	return nil
}

// proposal returns the value proposed for ref, if any was.
func (st *stepper) proposal(ref ident.ViewRef) (StateMsg, bool) {
	for _, f := range st.fx {
		if p, ok := f.(proposed); ok && p.val.Ref() == ref {
			return p.val, true
		}
	}
	return StateMsg{}, false
}

// sent returns the messages sent to p, in order.
func (st *stepper) sent(p ident.PID) []any {
	var out []any
	for _, f := range st.fx {
		if s, ok := f.(sendTo); ok && s.to.Contains(p) {
			out = append(out, s.msg)
		}
	}
	return out
}

// awaits reports whether ref's decision was awaited.
func (st *stepper) awaits(ref ident.ViewRef) bool {
	for _, f := range st.fx {
		if a, ok := f.(asked); ok && a.id == viewInstance(ref) {
			return true
		}
	}
	return false
}

// TestOneDecisionPerChange: a view change's decision enters once. Ten
// changes in a three-member group, each run to its end by the fair
// continuation of the explorer's world, install ten views at every member
// and leave nothing for any member to ignore — no second report of a
// decision it installed, no straggler from a change that already ended.
func TestOneDecisionPerChange(t *testing.T) {
	const changes = 10
	ps := ident.NewPIDs("p0", "p1", "p2")
	w := newWorld(ps, View{ID: 1, Members: ps}, false)
	for i := 1; i <= changes; i++ {
		w.call(0, &request{kind: reqViewChange})
		for m, ok := w.fairMove(); ok; m, ok = w.fairMove() {
			w.do(m)
		}
		if w.violation != "" {
			t.Fatal(w.violation)
		}
		for j, p := range w.procs {
			if n := len(p.views) - 1; n != i {
				t.Fatalf("change %d: %s installed %d views", i, ps[j], n)
			}
		}
	}
	for j := range w.procs {
		if st := w.procs[j].s.stats; st.IgnoredNotBlocked+st.IgnoredWrongView != 0 {
			t.Errorf("%s ignored %d decisions, want 0", ps[j], st.IgnoredNotBlocked+st.IgnoredWrongView)
		}
	}
}

// TestOneDecisionPerChangeEngines is TestOneDecisionPerChange end to end:
// three engines with real consensus machines over a MemNetwork, where the
// engine answers each await from the machine's decision cache and a
// propose or a Receive may hand back the decision the change installed
// already. Ten changes install ten views at every member and leave nothing
// for any member to ignore.
func TestOneDecisionPerChangeEngines(t *testing.T) {
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
		eng, err := start(config{
			Self: p, Endpoint: ep, Detector: det,
			Obs:         obs.New(nil, reg, nil).With(obs.L("node", string(p))),
			GroupConfig: GroupConfig{InitialView: view0},
		})
		if err != nil {
			t.Fatal(err)
		}
		engs[p] = eng
		t.Cleanup(func() {
			eng.stop()
			det.Stop()
			ep.Close()
		})
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
	straggler, err := start(config{Self: "p2", Endpoint: eps["p2"], Detector: det, GroupConfig: GroupConfig{InitialView: view0, Heal: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(straggler.stop)

	// p0 opens a view change the straggler joins at t5 and that never
	// completes: p0 and p1 run no engine to answer it.
	if err := eps["p0"].Send("p2", 0, transport.Ctl, InitMsg{View: View{ID: view0.ID}}); err != nil {
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
	if err := eps["p0"].Send("p2", 0, transport.Ctl, ProbeMsg{View: View{ID: evicted.ID, Epoch: evicted.Epoch, Members: evicted.Members}}); err != nil {
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

// input steps e's value with ev as its loop would: at the clock's now and
// with the detector's verdicts.
func input(e *Engine, ev event) {
	ev.now, ev.detector = e.vc.clock.Now(), e.cfg.Detector
	step(&e.vc, ev)
}

// changeEngine is a hand-built, never-started engine self in view 4 of
// members under tagging, with a manual detector and a consensus machine
// that reaches nobody but the log, into which the test can inject
// decisions (injector).
func changeEngine(t *testing.T, self ident.PID, members ident.PIDs) (*Engine, *ctlLog) {
	log, det := &ctlLog{self: self}, fd.NewManual()
	cfg := config{Self: self, Endpoint: log, Detector: det, GroupConfig: GroupConfig{Relation: tagging}}
	e := &Engine{cfg: cfg}
	e.vc = newViewState(&e.cfg, View{ID: 4, Members: members}, e.cfg.Endpoint)
	send := func(to ident.PID, m consensus.Msg) { _ = log.Send(to, 0, transport.Ctl, m) }
	e.vc.cons = injector{consensus.NewMachine(self, send, det, nil)}
	t.Cleanup(det.Stop)
	return e, log
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
			st := newStepper("p1", tc.sides[0], tc.heal)
			st.suspected = tc.suspected
			next := ident.ViewRef{ID: st.s.cv.ID + 1}
			if len(tc.sides) == 1 {
				st.feed("p1", InitMsg{View: View{ID: st.s.cv.ID}})
			} else {
				far := View{ID: 7, Epoch: 9, Members: tc.sides[1]}
				next = mergeRefFor(st.s.cv.Ref(), far.Ref())
				st.feed("p1", InitMsg{View: View{ID: st.s.cv.ID, Members: tc.sides[0]}, Far: &far})
			}
			for _, p := range tc.declined {
				st.feed(p, PredMsg{Change: next, Decline: true})
			}
			for _, p := range tc.from {
				st.feed(p, PredMsg{Change: next})
			}
			got, awaited := "waits", next
			if _, ok := st.proposal(next); ok {
				got = "proposes"
			}
			for _, m := range st.sent("p2") {
				if _, ok := m.(SplitMsg); ok {
					got, awaited = "splits", ident.ViewRef{Epoch: SplitEpoch(st.s.cv.Ref(), tc.from), ID: next.ID}
				}
			}
			if got != tc.want {
				t.Fatalf("%s, want %s", got, tc.want)
			}
			if got != "waits" && !st.awaits(awaited) {
				t.Fatalf("%s without awaiting %v", got, awaited)
			}
		})
	}
}

// TestMergeDeclineCountsOut: an expelled process still answers a merge's
// INIT that names it, with a decline to every other member of the union,
// and a merging member receiving that decline proposes the union without
// the decliner instead of waiting for its suspicion. The decline follows
// the INIT on every link, so a member the announcement has not reached yet
// opens the merge before it counts the decline: had the decline come
// alone, that member would take it for another lineage's chatter, drop it,
// and wait for the decliner until the merge timed out.
func TestMergeDeclineCountsOut(t *testing.T) {
	ps := ident.NewPIDs
	far := View{ID: 7, Epoch: 9, Members: ps("q1", "q2", "q3")}
	ann := InitMsg{View: View{ID: 4, Members: ps("p1", "p2")}, Far: &far}
	ref := mergeRefFor(ann.Ref(), far.Ref())

	expelled := newStepper("q3", far.Members, true)
	expelled.s.terminal = ErrExpelled
	expelled.feed("q1", ann)
	decline := PredMsg{Change: ref, Decline: true}
	for _, p := range ps("p1", "p2", "q1", "q2", "q3") {
		want := []any{ann, decline}
		if p == "q3" {
			want = nil
		}
		if got := expelled.sent(p); !reflect.DeepEqual(got, want) {
			t.Errorf("the expelled q3 sent %s %v, want %v", p, got, want)
		}
	}

	st := newStepper("p1", ann.Members, true)
	st.feed("q1", ann)
	for _, p := range ps("p1", "p2", "q1", "q2") {
		st.feed(p, PredMsg{Change: ref})
	}
	if _, ok := st.proposal(ref); ok {
		t.Fatal("proposed while q3, unsuspected, had neither contributed nor declined")
	}
	st.feed("q3", decline)
	val, ok := st.proposal(ref)
	if !ok {
		t.Fatal("q3's decline did not count it out")
	}
	if got, want := ps(val.Members...), ps("p1", "p2", "q1", "q2"); !got.Equal(want) {
		t.Fatalf("proposed union %v, want %v", got, want)
	}

	// q2 hears of the merge first from q3.
	q2 := newStepper("q2", far.Members, true)
	q2.s.cv = far
	for _, m := range expelled.sent("q2") {
		q2.feed("q3", m)
	}
	if c := q2.s.chg; c == nil || c.next != ref || !c.declined.Contains("q3") {
		t.Fatalf("q2 after q3's INIT and decline: change %+v, want the merge with q3 declined", c)
	}
}

// TestViewChangeStartsNoGoroutine: a view change runs on the engine loop
// alone. From the INIT through every PRED to the proposal — whose round-0
// estimate leaves within the turn — no goroutine starts.
func TestViewChangeStartsNoGoroutine(t *testing.T) {
	e, log := changeEngine(t, "p1", ident.NewPIDs("p1", "p2", "p3"))
	next := ident.ViewRef{ID: e.vc.cv.ID + 1}
	before := runtime.NumGoroutine()
	input(e, event{from: "p1", msg: InitMsg{View: View{ID: e.vc.cv.ID}}})
	for _, p := range e.vc.cv.Members {
		input(e, event{from: p, msg: PredMsg{Change: next}})
	}
	if !e.vc.chg.proposed {
		t.Fatal("every PRED is in, yet the change did not propose")
	}
	log.proposed(t, next)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("the view change started %d goroutines", n-before)
	}
}

// consNet carries consensus messages, in the order sent, between an engine
// under test and bare machines of the other participants. A message to a
// process in lost, or to one the net does not know, is lost.
type consNet struct {
	e      *Engine
	peers  map[ident.PID]*consensus.Machine
	lost   ident.PIDs
	flight []consEnv
}

type consEnv struct {
	from, to ident.PID
	m        consensus.Msg
}

// newConsNet gives e a consensus machine on a new net.
func newConsNet(e *Engine) *consNet {
	n := &consNet{e: e, peers: map[ident.PID]*consensus.Machine{}}
	e.vc.cons = n.machine(e.cfg.Self, e.cfg.Detector)
	return n
}

func (n *consNet) machine(self ident.PID, det fd.Detector) *consensus.Machine {
	return consensus.NewMachine(self, func(to ident.PID, m consensus.Msg) {
		n.flight = append(n.flight, consEnv{self, to, m})
	}, det, nil)
}

// peer adds the machine of participant p, whose detector suspects the
// processes listed.
func (n *consNet) peer(t *testing.T, p ident.PID, suspected ...ident.PID) *consensus.Machine {
	det := fd.NewManual()
	t.Cleanup(det.Stop)
	for _, q := range suspected {
		det.Suspect(q)
	}
	n.peers[p] = n.machine(p, det)
	return n.peers[p]
}

// run delivers messages until none is in flight: each to the engine as a
// step of it, to a peer through its Receive.
func (n *consNet) run() {
	for len(n.flight) > 0 {
		env := n.flight[0]
		n.flight = n.flight[1:]
		switch peer := n.peers[env.to]; {
		case n.lost.Contains(env.to):
		case env.to == n.e.cfg.Self:
			input(n.e, event{from: env.from, msg: env.m})
		case peer != nil:
			peer.Receive(env.from, env.m)
		}
	}
}

// TestExpelledMemberAnswersConsensus: consensus runs where control traffic
// stops. p1 is asked to leave; p0 and p1 decide view 5 without it, which
// expels p1, while p2 hears nothing. Then p0 crashes, and p2, a straggler
// suspecting it, sends its round-1 estimate for that instance to p1,
// round 1's coordinator: the expelled p1 still answers with the decision.
func TestExpelledMemberAnswersConsensus(t *testing.T) {
	ps := ident.NewPIDs("p0", "p1", "p2")
	e, _ := changeEngine(t, "p1", ps)
	n := newConsNet(e)
	v5 := ident.ViewRef{ID: 5}
	raw, err := codec.Marshal(nil, StateMsg{View: View{ID: v5.ID, Members: ident.NewPIDs("p0", "p2")}})
	if err != nil {
		t.Fatal(err)
	}
	n.lost = ident.PIDs{"p2"}
	if _, err := n.peer(t, "p0").Propose(viewInstance(v5), ps, raw); err != nil {
		t.Fatal(err)
	}
	input(e, event{from: "p0", msg: InitMsg{View: View{ID: 4}, Leave: ident.NewPIDs("p1")}})
	for _, p := range ps {
		input(e, event{from: p, msg: PredMsg{Change: v5}})
	}
	n.run()
	if e.vc.terminal != ErrExpelled || e.vc.cv.Ref() != v5 {
		t.Fatalf("p1 in view %v, terminal %v; want expelled by %v", e.vc.cv.Ref(), e.vc.terminal, v5)
	}

	n.lost = ident.PIDs{"p0"}
	straggler := n.peer(t, "p2", "p0")
	if _, err := straggler.Propose(viewInstance(v5), ps, []byte("p2's")); err != nil {
		t.Fatal(err)
	}
	n.run()
	if v, ok := straggler.Decided(viewInstance(v5)); !ok || string(v) != string(raw) {
		t.Fatalf("the straggler decided %v (%q), want %q from the expelled p1", ok, v, raw)
	}
}

// TestConsensusAheadOfTheChange: a consensus message for a change this
// member has not opened yet goes to its machine — neither stashed for the
// next view nor dropped. p1 opened the change to view 5 first and sent its
// estimate to p0, round 0's coordinator, before p0 heard the INIT; with
// p2 crashed, p0 needs that estimate for a majority, and the instance
// decides once p0 proposes too.
func TestConsensusAheadOfTheChange(t *testing.T) {
	ps := ident.NewPIDs("p0", "p1", "p2")
	e, _ := changeEngine(t, "p0", ps)
	e.cfg.Detector.(*fd.Manual).Suspect("p2")
	n := newConsNet(e)
	n.lost = ident.PIDs{"p2"}
	v5 := ident.ViewRef{ID: 5}
	raw, err := codec.Marshal(nil, StateMsg{View: View{ID: v5.ID, Members: ident.NewPIDs("p0", "p1")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.peer(t, "p1", "p2").Propose(viewInstance(v5), ps, raw); err != nil {
		t.Fatal(err)
	}
	n.run()
	if st := e.vc.stats; len(e.vc.stash) != 0 || st.DroppedUnknownCtl+st.DroppedStale+st.CtlDeferredDropped != 0 || e.vc.chg != nil {
		t.Fatalf("p1's estimate ahead of the change: %d stashed, %d dropped, blocked %v; want it held by the machine alone",
			len(e.vc.stash), st.DroppedUnknownCtl+st.DroppedStale+st.CtlDeferredDropped, e.vc.chg != nil)
	}
	input(e, event{from: "p1", msg: InitMsg{View: View{ID: 4}}})
	for _, p := range ident.NewPIDs("p0", "p1") {
		input(e, event{from: p, msg: PredMsg{Change: v5}})
	}
	n.run()
	if e.vc.cv.Ref() != v5 || e.vc.chg != nil {
		t.Fatalf("p0 in view %v, blocked %v; want view %v installed", e.vc.cv.Ref(), e.vc.chg != nil, v5)
	}
}

// TestConsensusFloodAheadOfTheChange: TestConsensusAheadOfTheChange after
// a stranger stepped estimates for more fresh instances into p0 than its
// machine keeps. p1's early estimate still opens its instance, which
// forgets the oldest fake one, and the change to view 5 installs.
func TestConsensusFloodAheadOfTheChange(t *testing.T) {
	ps := ident.NewPIDs("p0", "p1", "p2")
	e, _ := changeEngine(t, "p0", ps)
	e.cfg.Detector.(*fd.Manual).Suspect("p2")
	n := newConsNet(e)
	n.lost = ident.PIDs{"p2"}
	for i := 0; i < 2*consensus.MaxUnproposed; i++ {
		input(e, event{from: "x", msg: consensus.Msg{Instance: fmt.Sprintf("fake-%d", i)}})
	}
	v5 := ident.ViewRef{ID: 5}
	raw, err := codec.Marshal(nil, StateMsg{View: View{ID: v5.ID, Members: ident.NewPIDs("p0", "p1")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.peer(t, "p1", "p2").Propose(viewInstance(v5), ps, raw); err != nil {
		t.Fatal(err)
	}
	n.run()
	input(e, event{from: "p1", msg: InitMsg{View: View{ID: 4}}})
	for _, p := range ident.NewPIDs("p0", "p1") {
		input(e, event{from: p, msg: PredMsg{Change: v5}})
	}
	n.run()
	if e.vc.cv.Ref() != v5 || e.vc.chg != nil {
		t.Fatalf("p0 in view %v, blocked %v; want view %v installed", e.vc.cv.Ref(), e.vc.chg != nil, v5)
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
		{name: "a union member names its old side", from: "q1", probe: ProbeMsg{View: View{ID: 7, Epoch: 9, Members: ps("q1", "q2")}}},
		{name: "a member diverged at an equal ID", from: "q1", probe: ProbeMsg{View: View{ID: 8, Epoch: 9, Members: ps("q1", "q2")}}, merge: true},
		{name: "a non-member at a lower ID", from: "r1", probe: ProbeMsg{View: View{ID: 3, Epoch: 9, Members: ps("r1")}}, merge: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newStepper("p1", union.Members, true)
			st.s.cv = union
			st.feed(tc.from, tc.probe)
			inits, probes := 0, 0
			for _, f := range st.fx {
				s, ok := f.(sendTo)
				if !ok {
					continue
				}
				switch m := s.msg.(type) {
				case InitMsg:
					inits++
				case ProbeMsg:
					if !s.to.Equal(ident.PIDs{tc.from}) || m.Ref() != union.Ref() {
						t.Errorf("probe %v sent to %v", m, s.to)
					}
					probes++
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
			st := newStepper("b", tc.members, tc.heal)
			st.suspected = tc.suspected
			a := tagged(4, "a", 0, 0, 0, 0, 0, 2, 2) // a:7 lists a:6
			next := ident.ViewRef{ID: st.s.cv.ID + 1}
			st.feed("b", InitMsg{View: View{ID: st.s.cv.ID}})
			st.feed("b", PredMsg{Change: next, Msgs: []DataMsg{msgOf(&a[5])}})
			st.feed("c", PredMsg{Change: next, Msgs: []DataMsg{msgOf(&a[6])}})
			if tc.heal {
				next.Epoch = SplitEpoch(st.s.cv.Ref(), ps("b", "c"))
			}
			val, ok := st.proposal(next)
			if got := ids(val.Backlog); !ok || !reflect.DeepEqual(got, []string{"a:7@4"}) {
				t.Fatalf("proposed flush %v (proposed: %v), want [a:7@4]", got, ok)
			}
		})
	}
}

// TestParkedCallsCommitBeforeStashReplays: a multicast parked while the
// group changes to view 5 commits in view 5 as the decision installs it —
// behind the view's marker, answered with the view — and only then does
// the INIT for the change to view 6, stashed during the change, replay and
// block the group again. Replayed first, it would keep the call parked.
func TestParkedCallsCommitBeforeStashReplays(t *testing.T) {
	ps := ident.NewPIDs("p1", "p2")
	e, _ := changeEngine(t, "p1", ps)
	input(e, event{from: "p1", msg: InitMsg{View: View{ID: 4}}})
	req := &request{kind: reqMulticast}
	req.one[0].Meta = obsolete.Msg{Sender: "p1", Seq: 1}
	req.batch = req.one[:]
	input(e, event{msg: req})
	input(e, event{from: "p2", msg: InitMsg{View: View{ID: 5}}})
	if len(e.vc.multicastQ) != 1 || len(e.vc.stash) != 1 {
		t.Fatalf("%d calls parked and %d messages stashed in the change, want 1 and 1", len(e.vc.multicastQ), len(e.vc.stash))
	}
	v5 := ident.ViewRef{ID: 5}
	st, err := codec.Marshal(nil, StateMsg{View: View{ID: v5.ID, Members: ps}})
	if err != nil {
		t.Fatal(err)
	}
	input(e, event{msg: consensus.Msg{Instance: viewInstance(v5), Value: st}})
	if len(e.vc.replies) != 1 || req.res != (result{view: v5}) || len(e.vc.multicastQ) != 0 {
		t.Fatalf("after the install: %d answers, the call's %+v, %d parked; want it answered in %v", len(e.vc.replies), req.res, len(e.vc.multicastQ), v5)
	}
	var queued []string
	e.vc.toDeliver.EachRef(func(it *queue.Item) bool {
		if it.Kind == queue.Control {
			queued = append(queued, it.Ctl.(View).Ref().String())
		} else {
			queued = append(queued, fmt.Sprintf("%s:%d@%d", it.Meta.Sender, it.Meta.Seq, it.View))
		}
		return true
	})
	if want := []string{v5.String(), "p1:1@5"}; !reflect.DeepEqual(queued, want) {
		t.Fatalf("delivery queue %v, want %v", queued, want)
	}
	if c := e.vc.chg; c == nil || c.next != (ident.ViewRef{ID: 6}) {
		t.Fatalf("the replayed INIT left change %+v, want the group blocked for view 6", c)
	}
}

// TestDecodeValueRejectsGarbage: the decided value is a StateMsg. A decision
// whose bytes do not decode, or decode to another registered type, counts
// one DecisionFailures and installs nothing; a StateMsg installs.
func TestDecodeValueRejectsGarbage(t *testing.T) {
	e, _ := changeEngine(t, "p1", ident.NewPIDs("p1", "p2"))
	input(e, event{from: "p1", msg: InitMsg{View: View{ID: e.vc.cv.ID}}})
	ref := ident.ViewRef{ID: e.vc.cv.ID + 1}
	credit, err := codec.Marshal(nil, CreditMsg{View: ref.ID, Credits: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range [][]byte{[]byte("garbage"), nil, credit} {
		input(e, event{msg: consensus.Msg{Instance: viewInstance(ref), Value: raw}})
		if n := e.vc.stats.DecisionFailures; n != uint64(i+1) || e.vc.cv.ID != 4 || e.vc.chg == nil {
			t.Fatalf("decision %q: %d failures, view %d, blocked %v; want %d, view 4, still blocked",
				raw, n, e.vc.cv.ID, e.vc.chg != nil, i+1)
		}
	}
	st, err := codec.Marshal(nil, StateMsg{View: View{ID: ref.ID, Members: []ident.PID{"p1", "p2"}}})
	if err != nil {
		t.Fatal(err)
	}
	input(e, event{msg: consensus.Msg{Instance: viewInstance(ref), Value: st}})
	if e.vc.cv.Ref() != ref || e.vc.chg != nil || e.vc.stats.DecisionFailures != 3 {
		t.Fatalf("a StateMsg decision left view %v, blocked %v, %d failures", e.vc.cv.Ref(), e.vc.chg != nil, e.vc.stats.DecisionFailures)
	}
}

// TestJoinTimeoutIsAStep: giving up a join is a transition of the state
// like any other, made by the tick at JoinSpec.GiveUp. The first tick sends
// the request and arms the give-up, which wake reports; a tick just short
// of it changes nothing, and the tick at it turns the joining state
// terminal with ErrJoinTimeout. A state transfer arriving afterwards
// installs nothing: it is counted as traffic reaching an engine at its end.
func TestJoinTimeoutIsAStep(t *testing.T) {
	st := newStepper("j", nil, false)
	st.s.cv, st.s.joining = View{}, true
	st.s.cfg.Join = &JoinSpec{Contacts: ident.NewPIDs("p1"), GiveUp: 100 * time.Millisecond}
	st.tickAt(exploreNow)
	giveUp := exploreNow.Add(100 * time.Millisecond)
	if got := st.sent("p1"); len(got) != 1 || got[0] != (JoinReqMsg{}) {
		t.Fatalf("the first tick sent p1 %v, want one JoinReqMsg", got)
	}
	if w := st.s.wake(); !w.Equal(giveUp) {
		t.Fatalf("wake %v, want the give-up at %v", w, giveUp)
	}
	st.fx = nil
	st.tickAt(giveUp.Add(-time.Nanosecond))
	if !st.s.joining || len(st.fx) != 0 {
		t.Fatalf("a tick before the give-up: joining %v, effects %v; want still joining, none", st.s.joining, st.fx)
	}
	st.tickAt(giveUp)
	if st.s.joining || st.s.terminal != ErrJoinTimeout || len(st.fx) != 0 {
		t.Fatalf("after the give-up: joining %v, terminal %v, effects %v; want false, %v, none",
			st.s.joining, st.s.terminal, st.fx, ErrJoinTimeout)
	}
	st.feed("p1", StateMsg{View: View{ID: 5, Members: []ident.PID{"j", "p1"}}})
	if len(st.fx) != 0 || st.s.cv.ID != 0 || st.s.stats.DroppedExpelled != 1 {
		t.Fatalf("a late transfer: effects %v, view %d, %d dropped; want none, 0, 1",
			st.fx, st.s.cv.ID, st.s.stats.DroppedExpelled)
	}
}

// TestMergeTimeoutIsADeadline: a merge that has not decided aborts at
// exactly mergeTimeout after the group blocked, a deadline wake reports,
// and not a tick before.
func TestMergeTimeoutIsADeadline(t *testing.T) {
	ps := ident.NewPIDs
	far := View{ID: 7, Epoch: 9, Members: ps("q1")}
	st := newStepper("p1", ps("p1", "p2"), true)
	st.feed("q1", InitMsg{View: View{ID: 4, Members: ps("p1", "p2")}, Far: &far})
	deadline := exploreNow.Add(mergeTimeout)
	if !st.s.chg.merge() {
		t.Fatal("the INIT over two sides opened no merge")
	}
	if w := st.s.wake(); !w.Equal(deadline) {
		t.Fatalf("wake %v, want the merge timeout at %v", w, deadline)
	}
	st.tickAt(deadline.Add(-time.Nanosecond))
	if !st.s.chg.merge() || st.s.stats.MergeAborts != 0 {
		t.Fatal("the merge aborted before its timeout")
	}
	st.tickAt(deadline)
	if st.s.chg != nil || st.s.stats.MergeAborts != 1 {
		t.Fatalf("ticked at the timeout: change %+v, %d aborts; want none, 1", st.s.chg, st.s.stats.MergeAborts)
	}
}

// TestPendingJoinsBounded: a group blocked in a change parks the admission
// requests it cannot serve yet, up to maxPendingJoins requesters; each
// further one is dropped and counted, and a parked requester asking again
// is not.
func TestPendingJoinsBounded(t *testing.T) {
	st := newStepper("p1", ident.NewPIDs("p1", "p2", "p3"), false)
	st.feed("p1", InitMsg{View: View{ID: st.s.cv.ID}})
	for i := 0; i < maxPendingJoins+10; i++ {
		st.feed(ident.PID(fmt.Sprintf("j%04d", i)), JoinReqMsg{})
	}
	st.feed("j0000", JoinReqMsg{})
	if n := len(st.s.joins); n != maxPendingJoins {
		t.Errorf("%d requesters parked, want %d", n, maxPendingJoins)
	}
	if n := st.s.stats.JoinReqDropped; n != 10 {
		t.Errorf("%d requests dropped, want 10", n)
	}
}

// TestStashOnlyNextView: the deferred stash keeps control traffic for the
// view this process installs next, and nothing further ahead. A stash full
// of INITs naming a far view of our lineage, from a process in no view of
// ours, would drop the next view's INIT from a member and strand the change
// it opens; a PRED for change 0 would name a view just short of the wrap
// and be stashed the same way. Both are dropped as stale instead, and the
// member's INIT waits for its view.
func TestStashOnlyNextView(t *testing.T) {
	st := newStepper("p1", ident.NewPIDs("p0", "p1", "p2"), false)
	for i := 0; i < maxDeferredCtl; i++ {
		st.feed("x", InitMsg{View: View{ID: st.s.cv.ID + 1000}})
	}
	st.feed("p0", PredMsg{})
	st.feed("p0", InitMsg{View: View{ID: st.s.cv.ID + 1}})
	if len(st.s.stash) != 1 || st.s.stash[0].From != "p0" {
		t.Errorf("stash holds %d messages, want only p0's INIT for the next view", len(st.s.stash))
	}
	if s := st.s.stats; s.DroppedStale != maxDeferredCtl+1 || s.CtlDeferredDropped != 0 {
		t.Errorf("%d dropped stale, %d deferred dropped; want %d, 0", s.DroppedStale, s.CtlDeferredDropped, maxDeferredCtl+1)
	}
}

// TestDeferralAppendsInPlace: deferring a control message appends it to the
// stash in place. Copying the stash on every deferral made filling it
// quadratic in what it holds; now one more PRED deferred into a joining
// value already holding 1,000 allocates nothing.
func TestDeferralAppendsInPlace(t *testing.T) {
	const held, runs = 1000, 100
	st := newStepper("j", nil, false)
	st.s.cv, st.s.joining = View{}, true
	var pred any = PredMsg{Change: ident.ViewRef{ID: 2}}
	ev := event{from: "p1", msg: pred, now: exploreNow, detector: suspects(nil)}
	for i := 0; i < held; i++ {
		step(&st.s, ev)
	}
	if len(st.s.stash) != held {
		t.Fatalf("%d PREDs stashed, want %d", len(st.s.stash), held)
	}
	if n := testing.AllocsPerRun(runs, func() { step(&st.s, ev) }); n != 0 {
		t.Errorf("deferring one more PRED allocates %v times", n)
	}
	if len(st.s.stash) != held+runs+1 {
		t.Errorf("%d PREDs stashed, want %d", len(st.s.stash), held+runs+1)
	}
}

// TestWatchingFollowsState: whom a group needs monitored is read off its
// state, step by step — the view while open or in an ordinary change, the
// contacts while joining, the union while a merge runs and the view again
// once it aborts, and nobody once the group is at its end, expelled or
// given up.
func TestWatchingFollowsState(t *testing.T) {
	ps := ident.NewPIDs
	t0 := time.Unix(0, 0)
	view := View{ID: 2, Members: ps("p0", "p1")}
	far := View{Epoch: SplitEpoch(ident.ViewRef{ID: 1}, ps("p2")), ID: 2, Members: ps("p2")}
	for _, tc := range []struct {
		name  string
		join  *JoinSpec
		steps []event
		want  []ident.PIDs // as built, then after each step
	}{
		{
			name:  "open, then an ordinary change",
			steps: []event{{from: "p1", msg: InitMsg{View: View{ID: 2}}, now: t0}},
			want:  []ident.PIDs{view.Members, view.Members},
		},
		{
			name:  "expelled",
			steps: []event{{from: "p1", msg: ProbeMsg{View{ID: 3, Members: ps("p1")}}, now: t0}},
			want:  []ident.PIDs{view.Members, nil},
		},
		{
			name:  "joining, then given up",
			join:  &JoinSpec{Contacts: ps("p1", "p2"), GiveUp: time.Second},
			steps: []event{{msg: tick{}, now: t0}, {msg: tick{}, now: t0.Add(time.Second)}},
			want:  []ident.PIDs{ps("p1", "p2"), ps("p1", "p2"), nil},
		},
		{
			name:  "merge running, then aborted",
			steps: []event{{from: "p2", msg: InitMsg{View: view, Far: &far}, now: t0}, {msg: tick{}, now: t0.Add(mergeTimeout)}},
			want:  []ident.PIDs{view.Members, ps("p0", "p1", "p2"), view.Members},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var links []quietSend
			cfg := config{Self: "p0", Join: tc.join, GroupConfig: GroupConfig{Relation: obsolete.Empty{}, Heal: true}}
			initial := view
			if tc.join != nil {
				initial = View{}
			}
			s := newViewState(&cfg, initial, quietLink{"p0", &links})
			s.cons = undecided{}
			if got := s.watching(); !got.Equal(tc.want[0]) {
				t.Fatalf("as built: watching %v, want %v", got, tc.want[0])
			}
			for i, ev := range tc.steps {
				ev.detector = suspects(nil)
				step(&s, ev)
				if got := s.watching(); !got.Equal(tc.want[i+1]) {
					t.Fatalf("after %T: watching %v, want %v", ev.msg, got, tc.want[i+1])
				}
			}
		})
	}
}
