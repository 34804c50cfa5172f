package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/queue"
)

// snapEngine is a hand-built, never-started engine: no goroutines, no
// clock, just the loop-owned state the snapshot code reads and writes.
func snapEngine(rel obsolete.Relation) *Engine {
	e := &Engine{cfg: config{Self: "me", GroupConfig: GroupConfig{Relation: rel}}}
	e.vc = newViewState(&e.cfg, View{ID: 4, Members: ident.NewPIDs("a", "b", "me")}, e.cfg.Endpoint)
	return e
}

// tagged mints sender s's tagging stream (see tagStreams), one message per
// tag, as data items of view v of the founding lineage: the item at index i
// has seq i+1, and tag 0 makes it reliable.
func tagged(v uint64, s ident.PID, tags ...uint32) []queue.Item {
	ts := tagStreams{}
	out := make([]queue.Item, len(tags))
	for i, tag := range tags {
		out[i] = queue.Item{Kind: queue.Data, View: v, Meta: ts.next(s, tag)}
	}
	return out
}

// ids renders messages as "sender:seq@view" for comparison.
func ids(msgs []DataMsg) []string {
	out := make([]string, len(msgs))
	for i, dm := range msgs {
		out[i] = fmt.Sprintf("%s:%d@%d", dm.Meta.Sender, dm.Meta.Seq, dm.View)
	}
	return out
}

// heldFixture is a hand-built engine holding one fixed set of data: a
// stable message, covers that straddle history and queue, and an older
// view's entry flush-adopted into the queue. (A live engine never holds an
// older view's entry next to current-view history.)
func heldFixture() *Engine {
	e := snapEngine(tagging)
	e.vc.own.recvMax = 7
	e.vc.peer("a").recvMax, e.vc.peer("b").recvMax, e.vc.peer("c").recvMax = 8, 3, 9
	e.vc.peer("a").stable = 5
	a := tagged(4, "a", 0, 0, 0, 0, 1, 2, 2, 3) // a:7 lists a:6
	b := tagged(4, "b", 0, 0, 0)
	c := tagged(3, "c", 0, 0, 0, 0, 0, 0, 0, 0, 7)
	me := tagged(4, "me", 0, 0, 0, 0, 0, 9, 9) // me:7 lists me:6
	for _, it := range []queue.Item{
		a[4], // a:5, stable
		a[5], // a:6, covered by a:7, which is still queued
		b[2],
		me[5], // me:6, covered by me:7
	} {
		e.vc.delivered.ForceAppend(it)
	}
	for _, it := range []queue.Item{
		c[8], // c:9, flush-adopted from the previous view
		{Kind: queue.Control, View: 4, Ctl: e.vc.cv},
		a[6],
		a[7],
		me[6],
	} {
		e.vc.toDeliver.ForceAppend(it)
	}
	return e
}

// changeOver is a change record of e's current view over the given sides:
// one for an ordinary change, two for a merge with a far sub-view.
func changeOver(e *Engine, sides int) *change {
	c := &change{next: ident.ViewRef{ID: e.vc.cv.ID + 1}, sides: []ident.PIDs{e.vc.cv.Members}}
	if sides == 2 {
		c.next = mergeRefFor(e.vc.cv.Ref(), ident.ViewRef{Epoch: 9, ID: 7})
		c.sides = append(c.sides, ident.NewPIDs("q1"))
	}
	return c
}

// TestSnapshotThreeCallersOneState checks the view-change flush, the join
// transfer and the merge contribution against the same held data: they are
// one collection under three filters.
func TestSnapshotThreeCallersOneState(t *testing.T) {
	e := heldFixture()
	for _, tc := range []struct {
		name string
		got  []DataMsg
		want []string
	}{
		{
			// What onInit contributes to an ordinary change: current view
			// only, stable left out, history then queue, nothing repurged.
			name: "view-change pred",
			got:  e.vc.contribution(changeOver(e, 1)).Msgs,
			want: []string{"a:6@4", "b:3@4", "me:6@4", "a:7@4", "a:8@4", "me:7@4"},
		},
		{
			// What onInit contributes to a merge: the far side never counted
			// towards this view's stable frontier, so a:5 stays.
			name: "merge contribution",
			got:  e.vc.contribution(changeOver(e, 2)).Msgs,
			want: []string{"a:5@4", "a:6@4", "b:3@4", "me:6@4", "a:7@4", "a:8@4", "me:7@4"},
		},
		{
			// What a joiner is sent: every view's entries, with the covers
			// that straddle history and queue (a:6 ⊑ a:7, me:6 ⊑ me:7)
			// collapsed.
			name: "join backlog",
			got:  e.vc.buildJoinState(e.vc.cv).Backlog,
			want: []string{"a:5@4", "b:3@4", "c:9@3", "a:7@4", "a:8@4", "me:7@4"},
		},
	} {
		if got := ids(tc.got); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got  %v\n want %v", tc.name, got, tc.want)
		}
	}
	wantRecv := map[ident.PID]ident.Seq{"a": 8, "b": 3, "c": 9, "me": 7}
	if got := e.vc.buildJoinState(e.vc.cv).Recv; !reflect.DeepEqual(got, wantRecv) {
		t.Errorf("join frontiers: got %v, want %v", got, wantRecv)
	}
}

// TestOneContribution: a change over one side and one over two contribute
// the same message, PredMsg. On one held set, an ordinary change's PRED
// carries no frontiers and no stable message, and encodes at most 2 bytes
// larger than the [PRED, v, P] it replaced — a view, an epoch and the
// messages — for the empty frontier map and the decline flag; a merge's
// carries both.
func TestOneContribution(t *testing.T) {
	e := heldFixture()
	stableA5 := func(m PredMsg) bool {
		for _, dm := range m.Msgs {
			if dm.Meta.Sender == "a" && dm.Meta.Seq == 5 {
				return true
			}
		}
		return false
	}

	one := e.vc.contribution(changeOver(e, 1))
	if one.Change != (ident.ViewRef{ID: e.vc.cv.ID + 1}) || one.Recv != nil || one.Decline || stableA5(one) {
		t.Errorf("ordinary change's PRED names %v, carries frontiers %v, decline %v, stable a:5 %v; want %v, none, false, false",
			one.Change, one.Recv, one.Decline, stableA5(one), ident.ViewRef{ID: e.vc.cv.ID + 1})
	}
	parent := codec.AppendUvarint([]byte{byte(codec.TPredMsg)}, uint64(e.vc.cv.ID))
	parent = appendList(codec.AppendUvarint(parent, uint64(e.vc.cv.Epoch)), one.Msgs, appendDataMsg)
	if grew := wireSize(one) - len(parent); grew < 0 || grew > 2 {
		t.Errorf("ordinary change's PRED is %d bytes, %d more than the view-tagged pred set's %d; want at most 2",
			wireSize(one), grew, len(parent))
	}

	two := e.vc.contribution(changeOver(e, 2))
	wantRecv := map[ident.PID]ident.Seq{"a": 8, "b": 3, "c": 9, "me": 7}
	if !reflect.DeepEqual(two.Recv, wantRecv) || !stableA5(two) || two.Change != changeOver(e, 2).next {
		t.Errorf("merge's PRED carries frontiers %v, stable a:5 %v, names %v; want %v, true, the union",
			two.Recv, stableA5(two), two.Change, wantRecv)
	}
}

// TestSnapshotAdopt pins the applier: which messages of a snapshot join the
// delivery queue, each purging what it obsoletes, and that frontiers only
// ever move forwards.
func TestSnapshotAdopt(t *testing.T) {
	e := snapEngine(tagging)
	e.vc.own.recvMax = 7
	e.vc.peer("a").recvMax, e.vc.peer("b").recvMax = 6, 3
	a := tagged(4, "a", 0, 0, 0, 0, 1, 1, 0, 0, 4)
	b := tagged(4, "b", 0, 0, 0, 4, 4) // b:5 lists b:4
	me := tagged(4, "me", 0, 0, 0, 0, 0, 0, 2, 2)
	e.vc.toDeliver.ForceAppend(a[8]) // a:9

	msg := func(it queue.Item) DataMsg { return msgOf(&it) }
	added := e.vc.adopt([]DataMsg{
		msg(a[4]),                 // a:5, below a's frontier
		msg(a[5]),                 // a:6, at a's frontier
		msg(me[6]),                // me:7, our own, at our frontier: already sent
		msg(b[3]),                 // b:4, above b's frontier; a:9's tag is another sender's business
		msg(b[4]),                 // b:5, new, and purges b:4 on its way in
		msg(tagged(4, "d", 0)[0]), // d:1, new sender
		msg(me[7]),                // me:8, our own stream from an earlier incarnation
	}, map[ident.PID]ident.Seq{"a": 4, "b": 10, "me": 3, "x": 2})
	if added != 4 {
		t.Errorf("adopted %d messages, want 4", added)
	}
	var queued []DataMsg
	e.vc.toDeliver.EachRef(func(it *queue.Item) bool {
		queued = append(queued, msgOf(it))
		return true
	})
	if got, want := ids(queued), []string{"a:9@4", "b:5@4", "d:1@4", "me:8@4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivery queue:\n got  %v\n want %v", got, want)
	}
	// a and me were offered lower frontiers than we hold: they stay put
	// (me at the 8 it adopted, not at the 3 offered).
	wantMax := map[ident.PID]ident.Seq{"a": 6, "b": 10, "d": 1, "me": 8, "x": 2}
	gotMax := map[ident.PID]ident.Seq{}
	for id, p := range e.vc.peers {
		gotMax[id] = p.recvMax
	}
	if !reflect.DeepEqual(gotMax, wantMax) {
		t.Errorf("reception frontiers: got %v, want %v", gotMax, wantMax)
	}
	if e.vc.adopt(nil, map[ident.PID]ident.Seq{"me": 12}); e.vc.own.recvMax != 12 {
		t.Errorf("own frontier = %d after a higher one was offered, want 12", e.vc.own.recvMax)
	}
}
