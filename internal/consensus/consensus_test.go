package consensus

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/transport"
)

// harness wires n processes with manual failure detectors.
type harness struct {
	net  *transport.MemNetwork
	pids ident.PIDs
	svcs map[ident.PID]*Service
	dets map[ident.PID]*fd.Manual
	eps  map[ident.PID]*transport.MemEndpoint
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	h := &harness{
		net:  transport.NewMemNetwork(),
		svcs: make(map[ident.PID]*Service),
		dets: make(map[ident.PID]*fd.Manual),
		eps:  make(map[ident.PID]*transport.MemEndpoint),
	}
	var pids []ident.PID
	for i := 0; i < n; i++ {
		pids = append(pids, ident.PID(fmt.Sprintf("p%d", i)))
	}
	h.pids = ident.NewPIDs(pids...)
	for _, p := range h.pids {
		ep, err := h.net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		svc := New(ep, det, ident.NodeGroup, nil)
		svc.Start()
		h.eps[p] = ep
		h.dets[p] = det
		h.svcs[p] = svc
	}
	t.Cleanup(func() {
		for _, p := range h.pids {
			h.svcs[p].Stop()
			h.dets[p].Stop()
			h.eps[p].Close()
		}
	})
	return h
}

// proposeAll has every pid in who propose its own value; returns decisions.
func (h *harness) proposeAll(t *testing.T, id string, who ident.PIDs, timeout time.Duration) map[ident.PID][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var mu sync.Mutex
	out := make(map[ident.PID][]byte)
	var wg sync.WaitGroup
	for _, p := range who {
		wg.Add(1)
		go func(p ident.PID) {
			defer wg.Done()
			v, err := h.svcs[p].Propose(ctx, id, h.pids, []byte("from-"+string(p)))
			if err != nil {
				t.Errorf("%s: propose: %v", p, err)
				return
			}
			mu.Lock()
			out[p] = v
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	return out
}

func assertAgreement(t *testing.T, decisions map[ident.PID][]byte, proposers ident.PIDs) {
	t.Helper()
	var first []byte
	for _, v := range decisions {
		first = v
		break
	}
	if first == nil {
		t.Fatal("no decisions")
	}
	for p, v := range decisions {
		if string(v) != string(first) {
			t.Fatalf("disagreement: %s decided %q, others %q", p, v, first)
		}
	}
	// Validity: the decision is one of the proposals.
	valid := false
	for _, p := range proposers {
		if string(first) == "from-"+string(p) {
			valid = true
			break
		}
	}
	if !valid {
		t.Fatalf("decided value %q was never proposed", first)
	}
}

func TestConsensusAllCorrect(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			h := newHarness(t, n)
			decisions := h.proposeAll(t, "inst", h.pids, 5*time.Second)
			if len(decisions) != n {
				t.Fatalf("%d deciders, want %d", len(decisions), n)
			}
			assertAgreement(t, decisions, h.pids)
		})
	}
}

func TestConsensusCoordinatorCrash(t *testing.T) {
	h := newHarness(t, 3)
	// The round-0 coordinator is the first sorted pid: p0. Crash it before
	// anything starts and have everyone suspect it.
	coord := h.pids[0]
	h.net.Crash(coord)
	rest := h.pids.Remove(coord)
	for _, p := range rest {
		h.dets[p].Suspect(coord)
	}
	decisions := h.proposeAll(t, "inst", rest, 5*time.Second)
	if len(decisions) != len(rest) {
		t.Fatalf("%d deciders, want %d", len(decisions), len(rest))
	}
	assertAgreement(t, decisions, rest)
}

func TestConsensusMidRoundCrash(t *testing.T) {
	h := newHarness(t, 5)
	coord := h.pids[0]
	rest := h.pids.Remove(coord)

	// Everyone but the coordinator proposes; the coordinator stays silent
	// (as if crashed before proposing) and is eventually suspected.
	done := make(chan map[ident.PID][]byte, 1)
	go func() {
		done <- h.proposeAll(t, "inst", rest, 10*time.Second)
	}()
	time.Sleep(30 * time.Millisecond)
	h.net.Crash(coord)
	for _, p := range rest {
		h.dets[p].Suspect(coord)
	}
	decisions := <-done
	if len(decisions) != len(rest) {
		t.Fatalf("%d deciders, want %d", len(decisions), len(rest))
	}
	assertAgreement(t, decisions, rest)
}

func TestConsensusAwait(t *testing.T) {
	h := newHarness(t, 3)
	// p2 never proposes; it must still learn the decision via Await.
	awaiter := h.pids[2]
	proposers := h.pids.Remove(awaiter)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	awaitC := make(chan []byte, 1)
	go func() {
		v, err := h.svcs[awaiter].Await(ctx, "inst")
		if err != nil {
			t.Errorf("await: %v", err)
			close(awaitC)
			return
		}
		awaitC <- v
	}()

	decisions := h.proposeAll(t, "inst", proposers, 5*time.Second)
	assertAgreement(t, decisions, proposers)

	select {
	case v, ok := <-awaitC:
		if !ok {
			t.Fatal("await failed")
		}
		for _, d := range decisions {
			if string(v) != string(d) {
				t.Fatalf("awaited %q != decided %q", v, d)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("await never returned")
	}
}

// TestAwaitedInstanceEndsWithDecision: a bystander that awaits instances it
// never proposes to — as a view-change engine awaits its successor's — keeps
// no goroutine once the decide flood reaches it.
func TestAwaitedInstanceEndsWithDecision(t *testing.T) {
	const instances = 50
	h := newHarness(t, 3)
	bystander, proposers := h.pids[2], h.pids[:2]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	before := runtime.NumGoroutine()
	for i := 0; i < instances; i++ {
		id := fmt.Sprintf("inst-%d", i)
		awaited := make(chan error, 1)
		go func() {
			_, err := h.svcs[bystander].Await(ctx, id)
			awaited <- err
		}()
		assertAgreement(t, h.proposeAll(t, id, proposers, 5*time.Second), proposers)
		if err := <-awaited; err != nil {
			t.Fatalf("await %s: %v", id, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left over after %d awaited decisions", runtime.NumGoroutine()-before, instances)
		}
	}
}

func TestConsensusDecisionCache(t *testing.T) {
	h := newHarness(t, 3)
	decisions := h.proposeAll(t, "inst", h.pids, 5*time.Second)
	assertAgreement(t, decisions, h.pids)

	// A second Propose on the decided instance returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	v, err := h.svcs[h.pids[0]].Propose(ctx, "inst", h.pids, []byte("late"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != string(decisions[h.pids[0]]) {
		t.Fatalf("cached decision %q != original %q", v, decisions[h.pids[0]])
	}
	if got, ok := h.svcs[h.pids[1]].Decision("inst"); !ok || string(got) != string(v) {
		t.Fatalf("Decision() = %q,%v", got, ok)
	}
	if _, ok := h.svcs[h.pids[1]].Decision("other"); ok {
		t.Fatal("phantom decision")
	}
}

func TestConsensusConcurrentInstances(t *testing.T) {
	h := newHarness(t, 3)
	const instances = 8
	var wg sync.WaitGroup
	errs := make(chan error, instances)
	for i := 0; i < instances; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("inst-%d", i)
			decisions := h.proposeAll(t, id, h.pids, 10*time.Second)
			var first []byte
			for _, v := range decisions {
				if first == nil {
					first = v
				} else if string(v) != string(first) {
					errs <- fmt.Errorf("instance %s disagreement", id)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestConsensusNonParticipant(t *testing.T) {
	h := newHarness(t, 2)
	ctx := context.Background()
	_, err := h.svcs[h.pids[0]].Propose(ctx, "inst", ident.NewPIDs("x", "y"), []byte("v"))
	if err == nil {
		t.Fatal("proposing outside the participant set should fail")
	}
}

func TestConsensusContextCancel(t *testing.T) {
	h := newHarness(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Nobody else proposes, so this can only end via ctx.
	_, err := h.svcs[h.pids[0]].Propose(ctx, "lonely", h.pids, []byte("v"))
	if err == nil {
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
