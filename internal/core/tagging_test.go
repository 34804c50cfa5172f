package core

import (
	"fmt"
	"testing"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/queue"
)

// tagging is the §4.2 tagging encoding as the engine runs it: each sender
// mints its stream with obsolete.NewTagTracker, whose updates list their
// item's earlier updates, and obsolete.Enumeration reads the listings.
var tagging obsolete.Relation = obsolete.Enumeration{}

// tagWindow is the window of the tests' tagging streams, longer than
// TestBatchedEquivalentToSingle's whole stream: there every update lists
// all earlier ones of its item.
const tagWindow = 128

// tagStreams mints each sender's tagging stream through its own
// obsolete.NewTagTracker.
type tagStreams map[ident.PID]*obsolete.ItemTracker

// next returns p's next message: an update of item tag, or, for tag 0, a
// reliable message, which lists nothing and which nothing lists.
func (ts tagStreams) next(p ident.PID, tag uint32) obsolete.Msg {
	tr := ts[p]
	if tr == nil {
		tr = obsolete.NewTagTracker(tagWindow)
		ts[p] = tr
	}
	m := obsolete.Msg{Sender: p}
	if tag == 0 {
		m.Seq, m.Annot = tr.Reliable()
	} else {
		m.Seq, m.Annot = tr.Update(tag)
	}
	return m
}

// coveredBy is Figure 1's t3 test against one held message n: m ⊑ n, the
// reflexive closure of the relation.
func coveredBy(rel obsolete.Relation, m, n obsolete.Msg) bool {
	return m.ID() == n.ID() || rel.Obsoletes(m, n)
}

// TestFlushWithoutChainMiddle pins a flush — repurged at the proposal, then
// adopted at the install — that holds m1 and m3 of one item but not m2,
// which its contributor had already delivered. A listing that names only
// the direct predecessor purges less there: m3 lists m2 alone, so m1 stays
// and is delivered before m3, which is safe. The tag tracker lists m1 in
// m3's annotation too, as a k-enumeration tracker folds m1 into m3's
// bitmap, and under both m3 purges it.
func TestFlushWithoutChainMiddle(t *testing.T) {
	ts := tagStreams{}
	tagged := []obsolete.Msg{ts.next("a", 7), ts.next("a", 7), ts.next("a", 7)}
	direct := make([]obsolete.Msg, 3)
	kt := obsolete.NewKTracker(8)
	closed := make([]obsolete.Msg, 3)
	for i := range closed {
		var pred []ident.Seq
		if i > 0 {
			pred = []ident.Seq{ident.Seq(i)}
		}
		seq := ident.Seq(i + 1)
		direct[i] = obsolete.Msg{Sender: "a", Seq: seq, Annot: obsolete.EnumAnnot(seq, pred)}
		closed[i].Sender = "a"
		closed[i].Seq, closed[i].Annot = kt.Next(pred...)
	}
	for _, tc := range []struct {
		name   string
		rel    obsolete.Relation
		stream []obsolete.Msg
		want   string
	}{
		{"direct-only", obsolete.Enumeration{}, direct, "[1 3]"},
		{"tagging", tagging, tagged, "[3]"},
		{"k-enumeration", obsolete.KEnumeration{K: 8}, closed, "[3]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := snapEngine(tc.rel)
			e.vc.clock = obs.Wall{}
			flush := repurge(tc.rel, []DataMsg{{View: e.vc.cv.ID, Meta: tc.stream[0]}, {View: e.vc.cv.ID, Meta: tc.stream[2]}})
			next := installFlush(t, e, flush)
			var got []ident.Seq
			e.vc.toDeliver.EachRef(func(it *queue.Item) bool {
				if it.Kind == queue.Data {
					got = append(got, it.Meta.Seq)
				}
				return true
			})
			if e.vc.cv.ID != next.ID || fmt.Sprint(got) != tc.want {
				t.Fatalf("view %d, delivery queue holds a:%v, want view %d and a:%s", e.vc.cv.ID, got, next.ID, tc.want)
			}
		})
	}
}
