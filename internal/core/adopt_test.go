package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/queue"
)

// figure1Purge is the purge function of Figure 1 on a plain slice, the same
// model internal/queue's differential tests hold the queue against: examine
// the entries in FIFO order and remove each one some other entry of its view
// obsoletes; a removed entry stops serving as a witness. It is the
// reference adopt's arrival purge is held against — nothing in the engine
// runs it.
func figure1Purge(rel obsolete.Relation, items []queue.Item) ([]queue.Item, int) {
	removed := 0
	for i := 0; i < len(items); {
		dead := false
		for j := range items {
			if j != i && items[j].View == items[i].View && rel.Obsoletes(items[i].Meta, items[j].Meta) {
				dead = true
				break
			}
		}
		if dead {
			items = append(items[:i], items[i+1:]...)
			removed++
			continue
		}
		i++
	}
	return items, removed
}

// TestAdoptEqualsSweepModel: adopt purges as it inserts, and that leaves
// exactly what Figure 1 leaves when the same flush is put behind the same
// held queue and purge() then runs over all of it. Seeded, for each §4.2
// encoding: a held queue closed under the
// relation, its senders' frontiers, and a flush list that overlaps them —
// entries at or below a frontier, duplicates, our own stream, two views.
// Kept set, order, the number adopted and the number purged must agree.
func TestAdoptEqualsSweepModel(t *testing.T) {
	const k = 8
	for _, tc := range []struct {
		name    string
		rel     obsolete.Relation
		tracker func() obsolete.Tracker // nil: tagging
	}{
		{name: "tagging", rel: tagging},
		{name: "enumeration", rel: obsolete.Enumeration{}, tracker: func() obsolete.Tracker { return obsolete.NewEnumTracker(k) }},
		{name: "k-enumeration(k=8)", rel: obsolete.KEnumeration{K: k}, tracker: func() obsolete.Tracker { return obsolete.NewKTracker(k) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adopted, purged, skipped := 0, 0, 0
			for trial := 0; trial < 60; trial++ {
				rng := rand.New(rand.NewSource(int64(20*trial + 1)))
				e := snapEngine(tc.rel)
				senders := []ident.PID{"a", "b", "c", "me"}

				// Each sender's stream, the first part of it multicast in
				// view 3, and how much of it we hold already.
				type stream struct {
					msgs []queue.Item
					have int
				}
				streams := map[ident.PID]*stream{}
				for _, p := range senders {
					fs := &frontierStream{sender: p, tags: tagStreams{}}
					if tc.tracker != nil {
						fs.tr = tc.tracker()
					}
					n, split := 10+rng.Intn(30), rng.Intn(20)
					s := &stream{have: rng.Intn(n + 1)}
					for i := 0; i < n; i++ {
						view := uint64(4)
						if i < split {
							view = 3
						}
						s.msgs = append(s.msgs, queue.Item{Kind: queue.Data, View: view, Meta: fs.mint(rng)})
					}
					streams[p] = s
				}
				// interleave merges one slice of every stream, chosen by
				// cut, each in its own order.
				interleave := func(cut func(*stream) (from, to int)) []queue.Item {
					parts := map[ident.PID][]queue.Item{}
					for _, p := range senders {
						from, to := cut(streams[p])
						parts[p] = streams[p].msgs[from:to]
					}
					var out []queue.Item
					for {
						var open []ident.PID
						for _, p := range senders {
							if len(parts[p]) > 0 {
								open = append(open, p)
							}
						}
						if len(open) == 0 {
							return out
						}
						p := open[rng.Intn(len(open))]
						out = append(out, parts[p][0])
						parts[p] = parts[p][1:]
					}
				}

				// Held: what Figure 1 keeps of the received prefixes, less
				// what was delivered under an earlier view.
				model, _ := figure1Purge(tc.rel, interleave(func(s *stream) (int, int) { return 0, s.have }))
				model = model[rng.Intn(len(model)+1):]
				frontier := map[ident.PID]ident.Seq{}
				for _, p := range senders {
					frontier[p] = ident.Seq(streams[p].have)
					e.vc.peer(p).recvMax = frontier[p]
				}
				for _, it := range model {
					e.vc.toDeliver.ForceAppend(it)
				}

				// The flush: from somewhere at or below each frontier to
				// somewhere at or above it, with a few entries repeated.
				flush := interleave(func(s *stream) (int, int) {
					return rng.Intn(s.have + 1), s.have + rng.Intn(len(s.msgs)-s.have+1)
				})
				for n := rng.Intn(4); n > 0 && len(flush) > 0; n-- {
					i := rng.Intn(len(flush))
					j := i + rng.Intn(len(flush)-i)
					flush = append(flush[:j+1], flush[j:]...)
					flush[j+1] = flush[i]
				}

				// Figure 1: t3 lets a flush message in unless we had it
				// already or something held covers it; purge() comes last.
				wantAdded := 0
				for _, it := range flush {
					covered := it.Meta.Seq <= frontier[it.Meta.Sender]
					for _, h := range model {
						covered = covered || coveredBy(tc.rel, it.Meta, h.Meta)
					}
					if covered {
						skipped++
						continue
					}
					frontier[it.Meta.Sender] = it.Meta.Seq
					model = append(model, it)
					wantAdded++
				}
				model, wantPurged := figure1Purge(tc.rel, model)

				msgs := make([]DataMsg, len(flush))
				for i := range flush {
					msgs[i] = msgOf(&flush[i])
				}
				before := e.vc.toDeliver.Stats().Purged
				added := e.vc.adopt(msgs, nil)
				var got []DataMsg
				e.vc.toDeliver.EachRef(func(it *queue.Item) bool {
					got = append(got, msgOf(it))
					return true
				})
				want := make([]DataMsg, len(model))
				for i := range model {
					want[i] = msgOf(&model[i])
				}
				if !reflect.DeepEqual(ids(got), ids(want)) {
					t.Fatalf("trial %d: delivery queue after adopt\n got  %v\n want %v", trial, ids(got), ids(want))
				}
				if gotPurged := int(e.vc.toDeliver.Stats().Purged - before); added != wantAdded || gotPurged != wantPurged {
					t.Fatalf("trial %d: adopted %d and purged %d, the model %d and %d", trial, added, gotPurged, wantAdded, wantPurged)
				}
				adopted, purged = adopted+added, purged+wantPurged
			}
			if adopted == 0 || purged == 0 || skipped == 0 {
				t.Fatalf("vacuous: %d adopted, %d purged, %d skipped over all trials", adopted, purged, skipped)
			}
		})
	}
}

// countingKEnum is k-enumeration counting how often the relation is
// consulted, and how many numbers its listings name.
type countingKEnum struct {
	obsolete.KEnumeration
	calls, listed *int
}

func (c countingKEnum) Obsoletes(old, new obsolete.Msg) bool {
	*c.calls++
	return c.KEnumeration.Obsoletes(old, new)
}

func (c countingKEnum) AppendObsoleted(dst []ident.Seq, new obsolete.Msg, floor ident.Seq) []ident.Seq {
	*c.calls++
	out := c.KEnumeration.AppendObsoleted(dst, new, floor)
	*c.listed += len(out) - len(dst)
	return out
}

// TestInstallUnderBacklogIsLinear counts what installing a view costs in
// relation calls when the delivery queue holds a backlog: a 64-message flush
// over 1,024 queued entries at the paper's k = 2 × buffer must consult the
// relation in proportion to the flush and to what its annotations list —
// never once per pair of queued entries, which is what a sweep over the
// queue does (about half a million calls here).
func TestInstallUnderBacklogIsLinear(t *testing.T) {
	const backlog, flushLen, k = 1024, 64, 2048
	var calls, listed int
	rel := countingKEnum{KEnumeration: obsolete.KEnumeration{K: k}, calls: &calls, listed: &listed}
	e := snapEngine(rel)
	e.vc.clock = obs.Wall{}

	rng := rand.New(rand.NewSource(20))
	tr := obsolete.NewKTracker(k)
	for i := 0; i < backlog; i++ {
		seq, annot := tr.Next() // the backlog obsoletes nothing: all of it survives
		e.vc.toDeliver.ForceAppend(queue.Item{Kind: queue.Data, View: uint64(e.vc.cv.ID), Meta: obsolete.Msg{Sender: "a", Seq: seq, Annot: annot}})
	}
	e.vc.peer("a").recvMax = tr.Seq()
	var flush []DataMsg
	for i := 0; i < flushLen; i++ {
		seq, annot := tr.Next(ident.Seq(1+rng.Intn(backlog)), ident.Seq(1+rng.Intn(backlog)))
		flush = append(flush, DataMsg{View: e.vc.cv.ID, Meta: obsolete.Msg{Sender: "a", Seq: seq, Annot: annot}})
	}

	calls, listed = 0, 0
	next := installFlush(t, e, flush)

	if e.vc.cv.ID != next.ID || e.vc.stats.FlushAdded != flushLen {
		t.Fatalf("install: view %d, %d flush messages adopted", e.vc.cv.ID, e.vc.stats.FlushAdded)
	}
	purged := int(e.vc.toDeliver.Stats().Purged)
	if purged == 0 || e.vc.toDeliver.Len() != backlog+flushLen-purged+1 {
		t.Fatalf("after install: %d queued, %d purged", e.vc.toDeliver.Len(), purged)
	}
	if limit := 2 * (flushLen + listed); calls > limit {
		t.Fatalf("install consulted the relation %d times for a flush of %d listing %d numbers over a backlog of %d; want at most %d",
			calls, flushLen, listed, backlog, limit)
	}
}

// installFlush has e, blocked for its next view, decide and install that
// view with flush, as a decision entering the loop does.
func installFlush(t *testing.T, e *Engine, flush []DataMsg) View {
	t.Helper()
	det := fd.NewManual()
	t.Cleanup(det.Stop)
	e.cfg.Detector = det
	next := View{ID: e.vc.cv.ID + 1, Members: e.vc.cv.Members}
	id := viewInstance(next.Ref())
	e.vc.chg = &change{next: next.Ref(), awaited: map[string]bool{id: true}}
	e.vc.cons = injector{undecided{}}
	raw, err := codec.Marshal(nil, StateMsg{View: View{ID: next.ID, Epoch: next.Epoch, Members: next.Members}, Backlog: flush})
	if err != nil {
		t.Fatal(err)
	}
	input(e, event{msg: consensus.Msg{Instance: id, Value: raw}})
	return next
}
