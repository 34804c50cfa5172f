package consensus

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/transport"
)

// network is a goroutine-free set of machines: a send is queued, and
// deliver hands queued messages to their destinations' Receive one at a
// time, in an order drawn from a seeded source. Messages to or from a
// crashed process, or to a cut-off one, are discarded.
type network struct {
	t       *testing.T
	pids    ident.PIDs
	ms      map[ident.PID]*Machine
	dets    map[ident.PID]*fd.Manual
	rng     *rand.Rand
	queue   []wireMsg
	crashed map[ident.PID]bool
	cut     map[ident.PID]bool
	decided map[ident.PID]map[string][]byte
	onSend  func(w wireMsg) // when set, sees every send as it is queued
}

type wireMsg struct {
	from, to ident.PID
	m        Msg
}

func newNet(t *testing.T, n int, seed int64) *network {
	t.Helper()
	nw := &network{
		t:       t,
		ms:      make(map[ident.PID]*Machine),
		dets:    make(map[ident.PID]*fd.Manual),
		rng:     rand.New(rand.NewSource(seed)),
		crashed: make(map[ident.PID]bool),
		cut:     make(map[ident.PID]bool),
		decided: make(map[ident.PID]map[string][]byte),
	}
	var pids []ident.PID
	for i := 0; i < n; i++ {
		pids = append(pids, ident.PID(fmt.Sprintf("p%d", i)))
	}
	nw.pids = ident.NewPIDs(pids...)
	for _, p := range nw.pids {
		p := p
		det := fd.NewManual()
		t.Cleanup(det.Stop)
		nw.dets[p] = det
		nw.decided[p] = make(map[string][]byte)
		send := func(to ident.PID, m Msg) {
			w := wireMsg{from: p, to: to, m: m}
			if nw.onSend != nil {
				nw.onSend(w)
			}
			nw.queue = append(nw.queue, w)
		}
		nw.ms[p] = NewMachine(p, send, det, nil)
	}
	return nw
}

// record files the decisions a machine input of p returned, failing on a
// second decision of one instance.
func (nw *network) record(p ident.PID, ds []Decision) {
	nw.t.Helper()
	for _, d := range ds {
		if _, again := nw.decided[p][d.Instance]; again {
			nw.t.Fatalf("%s decided %s twice", p, d.Instance)
		}
		nw.decided[p][d.Instance] = d.Value
	}
}

func (nw *network) propose(p ident.PID, id string) {
	nw.t.Helper()
	ds, err := nw.ms[p].Propose(id, nw.pids, []byte("from-"+string(p)))
	if err != nil {
		nw.t.Fatal(err)
	}
	nw.record(p, ds)
}

// step delivers one queued message; false when none is left.
func (nw *network) step() bool { return nw.stepIf(func(wireMsg) bool { return true }) }

// stepIf delivers one of the queued messages keep accepts, drawn from the
// seeded source; false when keep accepts none.
func (nw *network) stepIf(keep func(w wireMsg) bool) bool {
	var kept []int
	for i, w := range nw.queue {
		if keep(w) {
			kept = append(kept, i)
		}
	}
	if len(kept) == 0 {
		return false
	}
	i := kept[nw.rng.Intn(len(kept))]
	w := nw.queue[i]
	nw.queue = append(nw.queue[:i], nw.queue[i+1:]...)
	if !nw.crashed[w.from] && !nw.crashed[w.to] && !nw.cut[w.to] {
		nw.record(w.to, nw.ms[w.to].Receive(w.from, w.m))
	}
	return true
}

// deliver runs the network until no message is in flight.
func (nw *network) deliver() {
	for steps := 0; nw.step(); steps++ {
		if steps > 1e6 {
			nw.t.Fatal("the network never went quiet")
		}
	}
}

// suspect has every live process suspect p and recheck.
func (nw *network) suspect(p ident.PID) {
	for _, q := range nw.pids {
		if !nw.crashed[q] {
			nw.dets[q].Suspect(p)
			nw.record(q, nw.ms[q].Recheck())
		}
	}
}

// agreed checks that every process in who decided id, all on one value that
// one of proposers proposed, and returns it.
func (nw *network) agreed(id string, who, proposers ident.PIDs) []byte {
	nw.t.Helper()
	var first []byte
	for _, p := range who {
		v, ok := nw.decided[p][id]
		if !ok {
			nw.t.Fatalf("%s did not decide %s", p, id)
		}
		if first == nil {
			first = v
		} else if string(v) != string(first) {
			nw.t.Fatalf("disagreement on %s: %s decided %q, another %q", id, p, v, first)
		}
	}
	for _, p := range proposers {
		if string(first) == "from-"+string(p) {
			return first
		}
	}
	nw.t.Fatalf("decided value %q was never proposed", first)
	return nil
}

func TestConsensusAllCorrect(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				nw := newNet(t, n, seed)
				for _, p := range nw.pids {
					nw.propose(p, "inst")
				}
				nw.deliver()
				nw.agreed("inst", nw.pids, nw.pids)
			}
		})
	}
}

// TestConsensusCoordinatorCrash: the round-0 coordinator p0 crashed before
// anything started. The others' instances wait on it until a suspicion and
// a recheck NACK it; round 1 decides.
func TestConsensusCoordinatorCrash(t *testing.T) {
	nw := newNet(t, 3, 1)
	coord := nw.pids[0]
	rest := nw.pids.Remove(coord)
	nw.crashed[coord] = true
	for _, p := range rest {
		nw.propose(p, "inst")
	}
	nw.deliver()
	for _, p := range rest {
		if _, ok := nw.decided[p]["inst"]; ok {
			t.Fatalf("%s decided while the coordinator was unsuspected", p)
		}
	}
	nw.suspect(coord)
	nw.deliver()
	nw.agreed("inst", rest, rest)
}

// TestConsensusMidRoundCrash: the round-0 coordinator crashes after its
// proposal reached one process, which adopted and ACKed it. A suspicion and
// a recheck move the others on, and the survivors agree.
func TestConsensusMidRoundCrash(t *testing.T) {
	undecided := 0 // seeds where the coordinator crashed before deciding
	for seed := int64(1); seed <= 20; seed++ {
		nw := newNet(t, 5, seed)
		coord, adopter := nw.pids[0], nw.pids[1]
		rest := nw.pids.Remove(coord)
		for _, p := range nw.pids {
			nw.propose(p, "inst")
		}
		for in := nw.ms[adopter].instances["inst"]; in.round == 0 && !in.decided; {
			if !nw.step() {
				t.Fatal("the round-0 proposal never reached the adopter")
			}
		}
		if !nw.ms[coord].instances["inst"].decided {
			undecided++
		}
		nw.crashed[coord] = true
		nw.suspect(coord)
		nw.deliver()
		nw.agreed("inst", rest, nw.pids)
	}
	if undecided == 0 {
		t.Fatal("the coordinator decided before its crash in every run")
	}
	t.Logf("%d of 20 runs crashed the coordinator before it decided", undecided)
}

// TestConsensusCoordinatorCrashMidDecide: the round-0 coordinator decides
// and crashes while it sends DECIDE. Five processes propose, and the seeded
// schedule runs, every DECIDE of p0 held back, until p0 decides. Its
// DECIDE then reaches p2 and p3 but neither p1, round 1's coordinator, nor
// p4; p0 crashes and is suspected. Every correct process decides one
// proposed value.
func TestConsensusCoordinatorCrashMidDecide(t *testing.T) {
	stranded := 0 // seeds where p1 and p4 were undecided at the crash
	for seed := int64(1); seed <= 100; seed++ {
		nw := newNet(t, 5, seed)
		p := nw.pids
		for _, q := range p {
			nw.propose(q, "inst")
		}
		fromCoord := func(w wireMsg) bool { return w.from == p[0] && w.m.Type == msgDecide }
		for !nw.ms[p[0]].instances["inst"].decided {
			if !nw.stepIf(func(w wireMsg) bool { return !fromCoord(w) }) {
				t.Fatalf("seed %d: p0 never decided", seed)
			}
		}
		nw.deliverIf(func(w wireMsg) bool { return fromCoord(w) && (w.to == p[2] || w.to == p[3]) })
		if !nw.ms[p[1]].instances["inst"].decided && !nw.ms[p[4]].instances["inst"].decided {
			stranded++
		}
		nw.crashed[p[0]] = true
		nw.suspect(p[0])
		nw.deliver()
		nw.agreed("inst", p[1:], p)
	}
	if stranded == 0 {
		t.Fatal("p1 or p4 had decided before the crash in every run")
	}
	t.Logf("%d of 100 runs crashed p0 with p1 and p4 undecided", stranded)
}

// bystanderRun has two of three processes propose; the third never does.
// It returns the network, the bystander and the agreed value.
func bystanderRun(t *testing.T) (*network, ident.PID, []byte) {
	t.Helper()
	nw := newNet(t, 3, 1)
	bystander, proposers := nw.pids[2], nw.pids[:2]
	for _, p := range proposers {
		nw.propose(p, "inst")
	}
	nw.deliver()
	return nw, bystander, nw.agreed("inst", nw.pids, proposers)
}

// TestConsensusAwait: a process that never proposes still learns the
// decision from the decide flood.
func TestConsensusAwait(t *testing.T) {
	nw, bystander, v := bystanderRun(t)
	if got, ok := nw.ms[bystander].Decided("inst"); !ok || string(got) != string(v) {
		t.Fatalf("bystander's Decided = %q, %v; want %q", got, ok, v)
	}
}

// TestAwaitedInstanceEndsWithDecision: once the bystander has learnt the
// decision it keeps nothing of the instance but the decision: no buffered
// messages and no live instance.
func TestAwaitedInstanceEndsWithDecision(t *testing.T) {
	nw, bystander, _ := bystanderRun(t)
	m := nw.ms[bystander]
	if in := m.instances["inst"]; !in.decided || in.inbox != nil || len(m.live) != 0 {
		t.Fatalf("bystander: decided %v, keeps %d messages and %d live instances", in.decided, len(in.inbox), len(m.live))
	}
}

// TestConsensusDecisionCache: a process cut off while the others decide
// proposes late; the coordinator's decided instance answers its estimate
// with the decision. Decided reports the cache and proposing again does
// nothing.
func TestConsensusDecisionCache(t *testing.T) {
	nw := newNet(t, 3, 1)
	late := nw.pids[2]
	nw.cut[late] = true
	for _, p := range nw.pids[:2] {
		nw.propose(p, "inst")
	}
	nw.deliver()
	nw.cut[late] = false
	nw.propose(late, "inst")
	nw.deliver()
	v := nw.agreed("inst", nw.pids, nw.pids[:2])
	m := nw.ms[nw.pids[0]]
	if got, ok := m.Decided("inst"); !ok || string(got) != string(v) {
		t.Fatalf("Decided = %q, %v; want %q", got, ok, v)
	}
	if _, ok := m.Decided("other"); ok {
		t.Fatal("phantom decision")
	}
	if ds, err := m.Propose("inst", nw.pids, []byte("again")); ds != nil || err != nil || len(nw.queue) != 0 {
		t.Fatalf("proposing to a decided instance returned %v, %v and sent %d messages", ds, err, len(nw.queue))
	}
}

func TestConsensusNonParticipant(t *testing.T) {
	nw := newNet(t, 2, 1)
	if _, err := nw.ms[nw.pids[0]].Propose("inst", ident.NewPIDs("x", "y"), []byte("v")); err == nil {
		t.Fatal("proposing outside the participant set should fail")
	}
	if len(nw.queue) != 0 {
		t.Fatal("a refused proposal sent messages")
	}
}

// TestConsensusConcurrentInstances: eight instances whose messages
// interleave on one network each reach agreement.
func TestConsensusConcurrentInstances(t *testing.T) {
	const instances = 8
	nw := newNet(t, 3, 1)
	for i := 0; i < instances; i++ {
		for _, p := range nw.pids {
			nw.propose(p, fmt.Sprintf("inst-%d", i))
		}
	}
	nw.deliver()
	for i := 0; i < instances; i++ {
		nw.agreed(fmt.Sprintf("inst-%d", i), nw.pids, nw.pids)
	}
}

// services starts one Service per process over a memory network.
func services(t *testing.T, n int) (ident.PIDs, []*Service) {
	t.Helper()
	mem := transport.NewMemNetwork()
	var pids []ident.PID
	for i := 0; i < n; i++ {
		pids = append(pids, ident.PID(fmt.Sprintf("p%d", i)))
	}
	var svcs []*Service
	for _, p := range pids {
		ep, err := mem.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		svc := New(ep, det, ident.NodeGroup, nil)
		svc.Start()
		t.Cleanup(func() {
			svc.Stop()
			det.Stop()
			ep.Close()
		})
		svcs = append(svcs, svc)
	}
	return ident.NewPIDs(pids...), svcs
}

// TestServiceProposeBlocksUntilDecided: every member proposes to four
// instances at once, each from its own goroutine; every blocking Propose
// returns its instance's one decided value, and a later Propose of a
// decided instance returns it at once.
func TestServiceProposeBlocksUntilDecided(t *testing.T) {
	const instances = 4
	pids, svcs := services(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := make([][][]byte, instances)
	var wg sync.WaitGroup
	for k := range got {
		got[k] = make([][]byte, len(svcs))
		for i, svc := range svcs {
			wg.Add(1)
			go func(k, i int, svc *Service) {
				defer wg.Done()
				v, err := svc.Propose(ctx, fmt.Sprintf("inst-%d", k), pids, []byte(pids[i]))
				if err != nil {
					t.Errorf("%s: %v", pids[i], err)
				}
				got[k][i] = v
			}(k, i, svc)
		}
	}
	wg.Wait()
	for k, vs := range got {
		for _, v := range vs {
			if v == nil || string(v) != string(vs[0]) {
				t.Fatalf("inst-%d: decisions %q disagree", k, vs)
			}
		}
	}
	if v, err := svcs[1].Propose(ctx, "inst-0", pids, []byte("late")); err != nil || string(v) != string(got[0][0]) {
		t.Fatalf("late Propose = %q, %v; want %q", v, err, got[0][0])
	}
}

func TestConsensusContextCancel(t *testing.T) {
	pids, svcs := services(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Nobody else proposes, so this can only end via ctx.
	if _, err := svcs[0].Propose(ctx, "lonely", pids, []byte("v")); err == nil {
		t.Fatal("cancelled propose should fail")
	}
}

// TestMsgCodecRoundTrip pins the binary encoding of the consensus wire
// message, including nil vs empty values.
func TestMsgCodecRoundTrip(t *testing.T) {
	cases := []Msg{
		{},
		{Instance: "svs-view/3", Round: 2, Type: msgPropose, Value: []byte("v"), Ts: 1},
		{Instance: "i", Type: msgDecide, Value: []byte{}},
		{Instance: "i", Round: 1 << 30, Type: msgNack, Ts: 1 << 30},
	}
	for _, m := range cases {
		b, err := codec.Marshal(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		out, err := codec.UnmarshalBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, m) {
			t.Fatalf("got %#v, want %#v", out, m)
		}
	}
}

// deliverIf hands queued messages that keep accepts to their destinations,
// in queue order, until none is left; the rest stay queued. Messages queued
// meanwhile are considered too.
func (nw *network) deliverIf(keep func(w wireMsg) bool) {
	nw.t.Helper()
	for {
		i := slices.IndexFunc(nw.queue, keep)
		if i < 0 {
			return
		}
		w := nw.queue[i]
		nw.queue = slices.Delete(nw.queue, i, i+1)
		nw.record(w.to, nw.ms[w.to].Receive(w.from, w.m))
	}
}

// TestConsensusAgreesUnderFalseSuspicion: a value locked in round 0 must
// outrank every initial estimate in round 1. Five processes propose. p0,
// round 0's coordinator, gathers the estimates of p0–p2 and proposes its
// own value to p0–p2, which adopt it and ACK; p3 and p4 falsely suspect p0
// and NACK. p0 decides on the three ACKs. Round 1's coordinator p1 hears
// p3's initial estimate first, then everything not from p0: it must still
// propose, and decide, p0's value.
func TestConsensusAgreesUnderFalseSuspicion(t *testing.T) {
	nw := newNet(t, 5, 1)
	p := nw.pids
	for _, q := range p {
		nw.propose(q, "inst")
	}
	early := p[:3]
	nw.deliverIf(func(w wireMsg) bool { return w.m.Type == msgEstimate && w.to == p[0] && early.Contains(w.from) })
	nw.deliverIf(func(w wireMsg) bool { return w.m.Type == msgPropose && early.Contains(w.to) })
	for _, q := range p[3:] {
		nw.dets[q].Suspect(p[0])
		nw.record(q, nw.ms[q].Recheck())
	}
	nw.deliverIf(func(w wireMsg) bool { return w.m.Type == msgAck && w.to == p[0] })
	if v := nw.decided[p[0]]["inst"]; string(v) != "from-p0" {
		t.Fatalf("p0 decided %q in round 0, want from-p0", v)
	}
	nw.deliverIf(func(w wireMsg) bool { return w.m.Type == msgEstimate && w.from == p[3] && w.to == p[1] })
	nw.deliverIf(func(w wireMsg) bool { return w.from != p[0] })
	nw.agreed("inst", p[:2], p)
}

// instanceCost runs one fault-free instance among n processes that all
// propose, on newNet's schedule for seed, and renders the messages the
// machines put on the links — a process's sends to itself are loopback
// and not counted — as "kind count/bytes" by kind, bytes encoded. With
// extra, p0 sends its first message to another process twice.
func instanceCost(t *testing.T, n int, seed int64, extra bool) string {
	t.Helper()
	nw := newNet(t, n, seed)
	sent, bytes := map[string]int{}, map[string]int{}
	nw.onSend = func(w wireMsg) {
		if extra && w.from == "p0" && w.to != w.from {
			extra = false
			nw.queue = append(nw.queue, w)
			nw.onSend(w)
		}
		if w.from == w.to {
			return
		}
		b, err := codec.Marshal(nil, w.m)
		if err != nil {
			t.Fatal(err)
		}
		sent[w.m.Type.String()]++
		bytes[w.m.Type.String()] += len(b)
	}
	for _, p := range nw.pids {
		nw.propose(p, "inst")
	}
	nw.deliver()
	nw.agreed("inst", nw.pids, nw.pids)
	var out []string
	for _, k := range []msgType{msgEstimate, msgPropose, msgAck, msgNack, msgDecide} {
		if sent[k.String()] > 0 {
			out = append(out, fmt.Sprintf("%s %d/%d", k, sent[k.String()], bytes[k.String()]))
		}
	}
	return strings.Join(out, ", ")
}

// TestConsensusCost pins the messages and bytes of one fault-free instance
// of the real Machine at n = 3, 5 and 9, every participant proposing, on
// the seeded network's schedule for seeds 1–20: one row per seed. Each
// process sends its estimate to round 0's coordinator, which proposes to
// the others, and they ACK. A participant that has replied moves on to the
// next round and sends that round's coordinator its estimate, so until the
// decision reaches it the schedule can run later rounds; every decision is
// relayed to the other participants, and a decided process answers each
// late message with it. So the counts vary with the seed. An injected
// extra message fails every row.
func TestConsensusCost(t *testing.T) {
	rows := []struct {
		seed int64
		want [3]string // n = 3, 5, 9
	}{
		{1, [3]string{"estimate 3/51, propose 2/34, ack 2/20, decide 6/102", "estimate 7/119, propose 8/136, ack 4/40, decide 27/459", "estimate 15/255, propose 8/136, ack 7/70, decide 78/1326"}},
		{2, [3]string{"estimate 3/51, propose 2/34, ack 2/20, decide 6/102", "estimate 7/119, propose 4/68, ack 4/40, decide 23/391", "estimate 13/221, propose 8/136, ack 6/60, decide 79/1343"}},
		{3, [3]string{"estimate 3/51, propose 4/68, ack 2/20, decide 9/153", "estimate 8/136, propose 8/136, ack 6/60, decide 27/459", "estimate 13/221, propose 8/136, ack 6/60, decide 80/1360"}},
		{4, [3]string{"estimate 3/51, propose 2/34, ack 1/10, decide 7/119", "estimate 9/153, propose 8/136, ack 7/70, decide 23/391", "estimate 14/238, propose 16/272, ack 8/80, decide 87/1479"}},
		{5, [3]string{"estimate 2/34, propose 2/34, ack 1/10, decide 7/119", "estimate 7/119, propose 8/136, ack 4/40, decide 26/442", "estimate 13/221, propose 16/272, ack 6/60, decide 85/1445"}},
		{6, [3]string{"estimate 3/51, propose 2/34, ack 2/20, decide 8/136", "estimate 9/153, propose 8/136, ack 6/60, decide 28/476", "estimate 14/238, propose 16/272, ack 7/70, decide 82/1394"}},
		{7, [3]string{"estimate 3/51, propose 2/34, ack 1/10, decide 8/136", "estimate 6/102, propose 4/68, ack 3/30, decide 26/442", "estimate 18/306, propose 16/272, ack 12/120, decide 86/1462"}},
		{8, [3]string{"estimate 3/51, propose 2/34, ack 2/20, decide 7/119", "estimate 7/119, propose 4/68, ack 4/40, decide 25/425", "estimate 17/289, propose 16/272, ack 10/100, decide 85/1445"}},
		{9, [3]string{"estimate 3/51, propose 4/68, ack 3/30, decide 6/102", "estimate 8/136, propose 8/136, ack 5/50, decide 26/442", "estimate 17/289, propose 16/272, ack 11/110, decide 86/1462"}},
		{10, [3]string{"estimate 3/51, propose 4/68, ack 3/30, decide 7/119", "estimate 8/136, propose 8/136, ack 6/60, decide 26/442", "estimate 19/323, propose 16/272, ack 13/130, decide 84/1428"}},
		{11, [3]string{"estimate 3/51, propose 2/34, ack 1/10, decide 8/136", "estimate 7/119, propose 8/136, ack 4/40, decide 27/459", "estimate 15/255, propose 16/272, ack 8/80, decide 89/1513"}},
		{12, [3]string{"estimate 3/51, propose 4/68, ack 2/20, decide 7/119", "estimate 8/136, propose 8/136, ack 5/50, decide 26/442", "estimate 14/238, propose 8/136, ack 7/70, decide 78/1326"}},
		{13, [3]string{"estimate 3/51, propose 4/68, ack 2/20, decide 7/119", "estimate 6/102, propose 8/136, ack 3/30, decide 26/442", "estimate 16/272, propose 16/272, ack 9/90, decide 88/1496"}},
		{14, [3]string{"estimate 3/51, propose 2/34, ack 2/20, decide 8/136", "estimate 8/136, propose 8/136, ack 6/60, decide 27/459", "estimate 16/272, propose 16/272, ack 10/100, decide 86/1462"}},
		{15, [3]string{"estimate 3/51, propose 4/68, ack 3/30, decide 6/102", "estimate 7/119, propose 4/68, ack 4/40, decide 26/442", "estimate 21/357, propose 16/272, ack 15/150, decide 79/1343"}},
		{16, [3]string{"estimate 3/51, propose 4/68, ack 2/20, decide 8/136", "estimate 9/153, propose 8/136, ack 7/70, decide 24/408", "estimate 14/238, propose 8/136, ack 6/60, decide 78/1326"}},
		{17, [3]string{"estimate 3/51, propose 2/34, ack 2/20, decide 6/102", "estimate 7/119, propose 4/68, ack 4/40, decide 23/391", "estimate 14/238, propose 8/136, ack 6/60, decide 77/1309"}},
		{18, [3]string{"estimate 3/51, propose 2/34, ack 2/20, decide 7/119", "estimate 7/119, propose 4/68, ack 3/30, decide 22/374", "estimate 14/238, propose 16/272, ack 7/70, decide 87/1479"}},
		{19, [3]string{"estimate 3/51, propose 4/68, ack 2/20, decide 9/153", "estimate 6/102, propose 4/68, ack 3/30, decide 24/408", "estimate 14/238, propose 8/136, ack 6/60, decide 78/1326"}},
		{20, [3]string{"estimate 3/51, propose 2/34, ack 2/20, decide 7/119", "estimate 8/136, propose 8/136, ack 5/50, decide 27/459", "estimate 15/255, propose 8/136, ack 8/80, decide 79/1343"}},
	}
	for _, r := range rows {
		for i, n := range []int{3, 5, 9} {
			if got := instanceCost(t, n, r.seed, false); got != r.want[i] {
				t.Errorf("seed %d, n=%d: %s, want %s", r.seed, n, got, r.want[i])
			}
			if got := instanceCost(t, n, r.seed, true); got == r.want[i] {
				t.Errorf("seed %d, n=%d: an extra message left the count at %s", r.seed, n, got)
			}
		}
	}
}

// TestConsensusFreshInstanceFlood: a peer naming 10,000 instances the
// round-0 coordinator p0 never proposed to, by an estimate or by a DECIDE,
// leaves it keeping MaxUnproposed of them, each one past the cap forgetting
// the oldest and counted. The flood is no wall: p1's and p2's estimates of
// a real instance, ahead of p0's proposal, still open it, and it decides
// once p0 proposes.
func TestConsensusFreshInstanceFlood(t *testing.T) {
	const flood = 10000
	for _, typ := range []msgType{msgEstimate, msgDecide} {
		t.Run(typ.String(), func(t *testing.T) {
			nw := newNet(t, 3, 1)
			m := nw.ms["p0"]
			for i := 0; i < flood; i++ {
				nw.record("p0", m.Receive("x", Msg{Instance: fmt.Sprintf("fake-%d", i), Type: typ, Value: []byte("v")}))
			}
			unproposed, _ := m.Backlog()
			if unproposed != MaxUnproposed || len(m.instances) != MaxUnproposed || m.instanceDrops.Load() != flood-MaxUnproposed {
				t.Fatalf("%d instances kept, %d not proposed to, %d forgotten; want %d, %d and %d",
					len(m.instances), unproposed, m.instanceDrops.Load(), MaxUnproposed, MaxUnproposed, flood-MaxUnproposed)
			}
			nw.propose("p1", "real")
			nw.propose("p2", "real")
			nw.deliver()
			nw.propose("p0", "real")
			nw.deliver()
			nw.agreed("real", nw.pids, nw.pids)
		})
	}
}

// TestConsensusFutureRoundFlood: 10,000 messages for rounds p0's proposed
// instance has not reached leave MaxBuffered of them buffered, the rest
// dropped and counted. The flood is no wall: each message of the round the
// instance runs makes room by dropping one for the furthest round, and the
// instance decides.
func TestConsensusFutureRoundFlood(t *testing.T) {
	const flood = 10000
	nw := newNet(t, 3, 1)
	m := nw.ms["p0"]
	nw.propose("p0", "inst")
	for i := 0; i < flood; i++ {
		nw.record("p0", m.Receive("x", Msg{Instance: "inst", Round: 1000 + i, Type: msgPropose}))
	}
	if _, buffered := m.Backlog(); buffered != MaxBuffered || m.inboxDrops.Load() != flood-MaxBuffered {
		t.Fatalf("%d messages buffered and %d dropped, want %d and %d", buffered, m.inboxDrops.Load(), MaxBuffered, flood-MaxBuffered)
	}
	nw.propose("p1", "inst")
	nw.propose("p2", "inst")
	nw.deliver()
	nw.agreed("inst", nw.pids, nw.pids)
}
