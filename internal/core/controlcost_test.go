package core

import (
	"fmt"
	"testing"

	"repro/internal/ident"
)

// TestControlCost pins the control messages of one ordinary change — no
// join, no leave, no crash — on the explorer's world with the consensus
// oracle, along the fair run: every member floods the INIT and sends its
// PRED to every other member, so n members put n(n−1) of each on the
// links, before any consensus traffic. Sends a process makes to itself are
// loopback and not counted.
func TestControlCost(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var pids []ident.PID
			for i := 0; i < n; i++ {
				pids = append(pids, ident.PID(fmt.Sprintf("p%d", i)))
			}
			members := ident.NewPIDs(pids...)
			w := newWorld(members, View{ID: 1, Members: members}, false)
			w.reqs = []xreq{{by: "p0"}}
			sent := make(map[string]int)
			w.onLink = func(msg any) { sent[fmt.Sprintf("%T", msg)]++ }

			w.do(move{mvRequest, 0, 0})
			for {
				m, ok := w.fairMove()
				if !ok {
					break
				}
				w.do(m)
			}
			for _, p := range w.procs {
				if got := p.views[len(p.views)-1]; got != (ident.ViewRef{ID: 2}) {
					t.Fatalf("%s ended in view %v, want 2", p.s.self, got)
				}
			}
			want := map[string]int{"core.InitMsg": n * (n - 1), "core.PredMsg": n * (n - 1)}
			if fmt.Sprint(sent) != fmt.Sprint(want) {
				t.Fatalf("control messages on the links = %v, want %v", sent, want)
			}
		})
	}
}
