package core

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/ident"
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

// TestControlCost pins the control messages of a change on the explorer's
// world with the consensus oracle, along the fair run. In an ordinary
// change — no join, no leave, no crash — every member floods the INIT and
// sends its PRED to every other member, so n members put n(n−1) of each on
// the links, before any consensus traffic; their encoded bytes are pinned
// too. A join adds the sponsor's one StateMsg; a leaver still contributes;
// in a 2|1 merge the INIT goes to the union and the probed side's member
// announces it to the other two.
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
}
