package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// controlRun makes the moves of w's fair run after issuing its membership
// requests, and returns the control messages put on the links, by type, and
// their encoded bytes. Sends a process makes to itself are loopback and not
// counted. Every live process must end in view want.
func controlRun(t *testing.T, w *world, want ident.ViewRef) (sent, bytes map[string]int) {
	t.Helper()
	sent, bytes = map[string]int{}, map[string]int{}
	w.onLink = func(msg any) {
		b, err := codec.Marshal(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		sent[fmt.Sprintf("%T", msg)]++
		bytes[fmt.Sprintf("%T", msg)] += len(b)
	}
	for r := range w.reqs {
		w.do(move{mvRequest, r, 0})
	}
	for m, ok := w.fairMove(); ok; m, ok = w.fairMove() {
		w.do(m)
	}
	if w.violation != "" {
		t.Fatal(w.violation)
	}
	for _, p := range w.procs {
		if got := p.views[len(p.views)-1]; got != want {
			t.Fatalf("%s ended in view %v, want %v", p.s.self, got, want)
		}
	}
	return sent, bytes
}

// quietLink is one member's outlet in quietRun: every send is queued on
// the shared links.
type quietLink struct {
	from  ident.PID
	links *[]quietSend
}

// quietSend is a message on quietRun's links.
type quietSend struct {
	from, to ident.PID
	msg      any
}

func (l quietLink) Send(to ident.PID, _ ident.GroupID, _ transport.Channel, msg any) error {
	*l.links = append(*l.links, quietSend{l.from, to, msg})
	return nil
}

// quietRun steps n members of a quiet group — stability gossip every
// 100ms, no data — through 60s of protocol time, ticking each member at
// its wake and delivering every send before the next tick, and returns the
// control messages put on the links, by type, and their encoded bytes.
func quietRun(t *testing.T, n int) (sent, bytes map[string]int) {
	t.Helper()
	sent, bytes = map[string]int{}, map[string]int{}
	var pids []ident.PID
	for i := 0; i < n; i++ {
		pids = append(pids, ident.PID(fmt.Sprintf("p%d", i)))
	}
	members := ident.NewPIDs(pids...)
	v := View{ID: 1, Members: members}
	var links []quietSend
	states := map[ident.PID]*viewState{}
	for _, p := range members {
		cfg := config{Self: p, GroupConfig: GroupConfig{Relation: obsolete.Empty{}, StabilityInterval: 100 * time.Millisecond}}
		s := newViewState(&cfg, v, quietLink{p, &links})
		states[p] = &s
	}
	start := time.Unix(0, 0)
	tickAt := func(s *viewState, now time.Time) {
		if fx := step(s, event{msg: tick{}, now: now, detector: suspects(nil)}); len(fx) > 0 {
			t.Fatalf("a quiet tick installed %v", fx)
		}
		for _, l := range links {
			b, err := codec.Marshal(nil, l.msg)
			if err != nil {
				t.Fatal(err)
			}
			sent[fmt.Sprintf("%T", l.msg)]++
			bytes[fmt.Sprintf("%T", l.msg)] += len(b)
			if m, ok := l.msg.(StableMsg); ok {
				states[l.to].onStable(l.from, m)
			}
		}
		links = links[:0]
	}
	for _, p := range members {
		tickAt(states[p], start)
	}
	for end := start.Add(60 * time.Second); ; {
		var next *viewState
		for _, p := range members {
			if w := states[p].wake(); !w.After(end) && (next == nil || w.Before(next.wake())) {
				next = states[p]
			}
		}
		if next == nil {
			return sent, bytes
		}
		tickAt(next, next.wake())
	}
}

// TestControlCost pins the control messages of a change on the explorer's
// world with the consensus oracle, along the fair run. In an ordinary
// change — no join, no leave, no crash — every member floods the INIT and
// sends its PRED to every other member, so n members put n(n−1) of each on
// the links, before any consensus traffic; their encoded bytes are pinned
// too. A join adds the sponsor's one StateMsg; a leaver still contributes;
// in a 2|1 merge the INIT goes to the union and the probed side's member
// announces it to the other two. A quiet group of n members with stability
// gossip every 100ms sends 600·n(n−1) StableMsgs in 60s, each member one
// round to the others per period, and no CreditMsg.
func TestControlCost(t *testing.T) {
	ps := ident.NewPIDs
	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var pids []ident.PID
			for i := 0; i < n; i++ {
				pids = append(pids, ident.PID(fmt.Sprintf("p%d", i)))
			}
			members := ident.NewPIDs(pids...)
			w := newWorld(members, View{ID: 1, Members: members}, false)
			w.reqs = []xreq{{by: "p0"}}
			sent, bytes := controlRun(t, w, ident.ViewRef{ID: 2})
			want := map[string]int{"core.InitMsg": n * (n - 1), "core.PredMsg": n * (n - 1)}
			if fmt.Sprint(sent) != fmt.Sprint(want) {
				t.Fatalf("control messages on the links = %v, want %v", sent, want)
			}
			// An ordinary change's INIT encodes in 7 bytes, and a PRED with
			// nothing to flush in 6.
			wantBytes := map[string]int{"core.InitMsg": 7 * n * (n - 1), "core.PredMsg": 6 * n * (n - 1)}
			if fmt.Sprint(bytes) != fmt.Sprint(wantBytes) {
				t.Fatalf("control bytes on the links = %v, want %v", bytes, wantBytes)
			}
		})
	}

	merge := func() *world {
		a := View{ID: 2, Members: ps("p0", "p1")}
		b := View{Epoch: SplitEpoch(ident.ViewRef{ID: 1}, ps("p2")), ID: 2, Members: ps("p2")}
		w := newWorld(ps("p0", "p1", "p2"), a, true)
		w.procs[2].s.cv = b
		w.procs[2].s.armPeers()
		w.procs[2].views = []ident.ViewRef{b.Ref()}
		w.send("p2", "p0", transport.Ctl, ProbeMsg{b})
		return w
	}
	union := mergeRefFor(View{ID: 2}.Ref(), View{Epoch: SplitEpoch(ident.ViewRef{ID: 1}, ps("p2")), ID: 2}.Ref())
	for _, tc := range []struct {
		name  string
		world func() *world
		view  ident.ViewRef
		want  map[string]int
	}{
		{
			name: "join",
			world: func() *world {
				w := newWorld(ps("j", "p0", "p1", "p2"), View{ID: 1, Members: ps("p0", "p1", "p2")}, false)
				w.procs[0].s.cv, w.procs[0].s.joining, w.procs[0].views = View{}, true, []ident.ViewRef{{}}
				w.reqs = []xreq{{by: "p0", join: ps("j")}}
				return w
			},
			view: ident.ViewRef{ID: 2},
			want: map[string]int{"core.InitMsg": 6, "core.PredMsg": 6, "core.StateMsg": 1},
		},
		{
			name: "leave",
			world: func() *world {
				w := newWorld(ps("p0", "p1", "p2"), View{ID: 1, Members: ps("p0", "p1", "p2")}, false)
				w.reqs = []xreq{{by: "p0", leave: ps("p2")}}
				return w
			},
			view: ident.ViewRef{ID: 2},
			want: map[string]int{"core.InitMsg": 6, "core.PredMsg": 6},
		},
		{
			name:  "2|1 merge",
			world: merge,
			view:  union,
			want:  map[string]int{"core.InitMsg": 6, "core.PredMsg": 6},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sent, _ := controlRun(t, tc.world(), tc.view)
			if fmt.Sprint(sent) != fmt.Sprint(tc.want) {
				t.Fatalf("control messages on the links = %v, want %v", sent, tc.want)
			}
		})
	}

	for _, n := range []int{3, 5, 9} {
		t.Run(fmt.Sprintf("quiet n=%d", n), func(t *testing.T) {
			sent, bytes := quietRun(t, n)
			// A StableMsg with no frontier to report encodes in 4 bytes.
			rounds := 600 * n * (n - 1)
			if want := map[string]int{"core.StableMsg": rounds}; fmt.Sprint(sent) != fmt.Sprint(want) {
				t.Fatalf("control messages on the links = %v, want %v", sent, want)
			}
			if want := map[string]int{"core.StableMsg": 4 * rounds}; fmt.Sprint(bytes) != fmt.Sprint(want) {
				t.Fatalf("control bytes on the links = %v, want %v", bytes, want)
			}
			again, againBytes := quietRun(t, n)
			if fmt.Sprint(sent, bytes) != fmt.Sprint(again, againBytes) {
				t.Fatalf("a second run counted %v %v, the first %v %v", again, againBytes, sent, bytes)
			}
		})
	}
}
