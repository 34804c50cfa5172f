package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/queue"
)

// frontierStream mints one sender's FIFO stream under one of the §4.2
// encodings (tr == nil: tagging when tags, otherwise plain).
type frontierStream struct {
	sender ident.PID
	tr     obsolete.Tracker
	tags   bool
	seq    ident.Seq
	sent   []obsolete.Msg // every message minted so far, sent[i].Seq == i+1
	seen   int            // prefix of sent the engine has been offered
}

func (s *frontierStream) mint(rng *rand.Rand) obsolete.Msg {
	m := obsolete.Msg{Sender: s.sender}
	switch {
	case s.tr != nil:
		var direct []ident.Seq
		for d := ident.Seq(0); d < 3 && d < s.tr.Seq(); d++ {
			if rng.Intn(3) == 0 {
				direct = append(direct, s.tr.Seq()-d)
			}
		}
		m.Seq, m.Annot = s.tr.Next(direct...)
	case s.tags && rng.Intn(4) != 0:
		s.seq++
		m.Seq, m.Annot = s.seq, obsolete.TagAnnot(uint32(1+rng.Intn(3)))
	default:
		s.seq++
		m.Seq = s.seq
	}
	s.sent = append(s.sent, m)
	return m
}

// TestFrontierSubsumesCover pins what lets processData and adopt skip the
// cover scan under sender-local relations: every held message of s has seq ≤
// s's recvMax (our own stream's included), so for an arrival above the
// frontier the paper's t3 test — here the retained scan Covers, on a twin
// queue whose relation is wrapped in obsolete.Func and so declares nothing —
// always answers "not covered". Seeded FIFO streams from three senders and
// ourselves go through all three places that insert a held message
// (processData, adopt, commitOne), interleaved with deliveries, duplicate
// arrivals and view changes.
func TestFrontierSubsumesCover(t *testing.T) {
	const k = 8
	for _, tc := range []struct {
		rel     obsolete.Relation
		tracker func() obsolete.Tracker
		tags    bool
	}{
		{rel: obsolete.Empty{}},
		{rel: obsolete.Tagging{}, tags: true},
		{rel: obsolete.Enumeration{}, tracker: func() obsolete.Tracker { return obsolete.NewEnumTracker(k) }},
		{rel: obsolete.KEnumeration{K: k}, tracker: func() obsolete.Tracker { return obsolete.NewKTracker(k) }},
	} {
		t.Run(tc.rel.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(16))
			e := snapEngine(tc.rel)
			if e.coverScan {
				t.Fatalf("%s is sender-local: the engine must not scan for covers", tc.rel.Name())
			}
			e.cv.Members = ident.NewPIDs("a", "b", "c", "me")
			e.armPeers()
			streams := map[ident.PID]*frontierStream{}
			for _, p := range e.cv.Members {
				streams[p] = &frontierStream{sender: p, tags: tc.tags}
				if tc.tracker != nil {
					streams[p].tr = tc.tracker()
				}
			}
			peers := []ident.PID{"a", "b", "c"}
			all := func(*queue.Item) bool { return true }
			frontier := func(s ident.PID) ident.Seq {
				return e.peer(s).recvMax
			}
			fresh, refCovered := 0, 0
			// offer checks one message against the reference, then hands it
			// to the engine through in.
			offer := func(m obsolete.Msg, in func(DataMsg)) {
				ref := queue.New(obsolete.Func{Label: "ref", F: tc.rel.Obsoletes}, 0)
				for _, dm := range e.held(all) {
					ref.ForceAppend(itemOf(dm))
				}
				switch covered := ref.Covers(m); {
				case m.Seq > frontier(m.Sender):
					fresh++
					if covered {
						t.Fatalf("%s:%d is above the frontier %d, yet the scan finds a cover", m.Sender, m.Seq, frontier(m.Sender))
					}
				case covered:
					refCovered++
				}
				in(DataMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Meta: m})
			}
			arrive := func(dm DataMsg) {
				if !e.processData(e.peers[dm.Meta.Sender], dm) {
					t.Fatal("unbounded delivery queue reported full")
				}
			}

			for step := 0; step < 1500; step++ {
				switch op := rng.Intn(12); {
				case op < 5: // the next message of a peer's stream arrives
					s := streams[peers[rng.Intn(len(peers))]]
					if s.seen == len(s.sent) {
						s.mint(rng)
					}
					offer(s.sent[s.seen], arrive)
					s.seen++
				case op < 6: // a duplicate arrives
					if s := streams[peers[rng.Intn(len(peers))]]; s.seen > 0 {
						offer(s.sent[rng.Intn(s.seen)], arrive)
					}
				case op < 7: // we multicast
					e.commitOne(streams["me"].mint(rng), nil)
					e.stage = e.stage[:0]
					for _, p := range e.others {
						p.took = 0
					}
				case op < 10: // the application consumes a few
					for n := rng.Intn(6); n > 0; n-- {
						if it := e.toDeliver.PeekHead(); it != nil {
							e.deliverItem(it, nil)
							e.toDeliver.PopHead()
						}
					}
				case op < 11: // a snapshot: each stream's next few messages, repurged, then frontiers
					var msgs []DataMsg
					recv := map[ident.PID]ident.Seq{}
					for _, p := range e.cv.Members {
						s := streams[p]
						for n := rng.Intn(4); n > 0; n-- {
							if s.seen == len(s.sent) {
								s.mint(rng)
							}
							msgs = append(msgs, DataMsg{View: e.cv.ID, Meta: s.sent[s.seen]})
							s.seen++
						}
						if s.seen > 0 {
							recv[p] = s.sent[rng.Intn(s.seen)].Seq
						}
					}
					for _, dm := range repurge(tc.rel, msgs) {
						offer(dm.Meta, func(dm DataMsg) { e.adopt([]DataMsg{dm}, nil) })
					}
					e.adopt(nil, recv)
				default: // a view change: history starts afresh, frontiers persist
					e.cv.ID++
					e.delivered = queue.New(tc.rel, 0)
				}
				for _, dm := range e.held(all) {
					if dm.Meta.Seq > frontier(dm.Meta.Sender) {
						t.Fatalf("step %d: held %s:%d lies above its frontier %d", step, dm.Meta.Sender, dm.Meta.Seq, frontier(dm.Meta.Sender))
					}
				}
			}
			if fresh < 500 || refCovered == 0 || e.stats.DroppedCovered == 0 {
				t.Fatalf("vacuous run: %d arrivals above the frontier, %d re-arrivals the scan covered, %d dropped",
					fresh, refCovered, e.stats.DroppedCovered)
			}
		})
	}
}

// TestCrossSenderCoverDropsArrival is the one case the cover scan is kept
// for, on a live group: under a relation that reaches across senders, p1's
// message covers a later arrival from p0 that lies above p0's frontier. The
// receivers must count it in DroppedCovered and never deliver it.
func TestCrossSenderCoverDropsArrival(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 3, rel: tagAnySender})
	for _, p := range h.pids {
		if !h.members[p].eng.coverScan {
			t.Fatalf("%s: engine does not scan for covers under a cross-sender relation", p)
		}
	}
	mustSend := func(p ident.PID, seq ident.Seq, annot []byte) {
		t.Helper()
		if err := h.multicast(p, seq, annot, []byte(fmt.Sprintf("%s:%d", p, seq))); err != nil {
			t.Fatal(err)
		}
	}
	mustSend("p1", 1, nil)
	mustSend("p1", 2, obsolete.TagAnnot(7))
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p1", 2) })
	}
	mustSend("p0", 1, obsolete.TagAnnot(7)) // p0:1 ≺ p1:2, which everyone holds
	mustSend("p0", 2, nil)                  // FIFO behind it: once delivered, p0:1 was decided
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", 2) })
	}
	for _, p := range []ident.PID{"p1", "p2"} {
		if hasSeq(h.rec.Log(p), "p0", 1) {
			t.Errorf("%s delivered p0:1, which p1:2 covers", p)
		}
		if got := h.members[p].eng.Stats().DroppedCovered; got != 1 {
			t.Errorf("%s: DroppedCovered = %d, want 1", p, got)
		}
	}
	h.verify()
}
