package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

// frontierStream mints one sender's FIFO stream under one of the §4.2
// encodings: through tr, through tags (tagging), or plain when neither.
type frontierStream struct {
	sender ident.PID
	tr     obsolete.Tracker
	tags   tagStreams
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
	case s.tags != nil:
		tag := uint32(0) // one in four is reliable
		if rng.Intn(4) != 0 {
			tag = uint32(1 + rng.Intn(3))
		}
		m = s.tags.next(s.sender, tag)
	default:
		s.seq++
		m.Seq = s.seq
	}
	s.sent = append(s.sent, m)
	return m
}

// scanCovers is Figure 1's t3 test by definition: some held message n with
// m ⊑ n. It is the reference the reception frontier is held against.
func scanCovers(rel obsolete.Relation, held []DataMsg, m obsolete.Msg) bool {
	for _, dm := range held {
		if coveredBy(rel, m, dm.Meta) {
			return true
		}
	}
	return false
}

// TestFrontierSubsumesCover pins what makes the reception frontier t3's whole
// test in take and adopt: every held message of s has seq ≤ s's
// recvMax (our own stream's included), so for an arrival above the frontier
// the paper's t3 test — scanCovers over everything held — always answers
// "not covered". Seeded FIFO streams from three senders and
// ourselves go through all three places that insert a held message
// (take, adopt, commitOne), interleaved with deliveries, duplicate
// arrivals and view changes.
func TestFrontierSubsumesCover(t *testing.T) {
	const k = 8
	for _, tc := range []struct {
		name    string
		rel     obsolete.Relation
		tracker func() obsolete.Tracker
		tags    bool
	}{
		{name: "empty", rel: obsolete.Empty{}},
		{name: "tagging", rel: tagging, tags: true},
		{name: "enumeration", rel: obsolete.Enumeration{}, tracker: func() obsolete.Tracker { return obsolete.NewEnumTracker(k) }},
		{name: "k-enumeration(k=8)", rel: obsolete.KEnumeration{K: k}, tracker: func() obsolete.Tracker { return obsolete.NewKTracker(k) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(16))
			e := snapEngine(tc.rel)
			e.vc.cv.Members = ident.NewPIDs("a", "b", "c", "me")
			e.vc.armPeers()
			streams := map[ident.PID]*frontierStream{}
			for _, p := range e.vc.cv.Members {
				streams[p] = &frontierStream{sender: p}
				if tc.tracker != nil {
					streams[p].tr = tc.tracker()
				} else if tc.tags {
					streams[p].tags = tagStreams{}
				}
			}
			peers := []ident.PID{"a", "b", "c"}
			all := func(*queue.Item) bool { return true }
			frontier := func(s ident.PID) ident.Seq {
				return e.vc.peer(s).recvMax
			}
			fresh, refCovered := 0, 0
			// offer checks one message against the reference, then hands it
			// to the engine through in.
			offer := func(m obsolete.Msg, in func(DataMsg)) {
				switch covered := scanCovers(tc.rel, e.vc.held(all), m); {
				case m.Seq > frontier(m.Sender):
					fresh++
					if covered {
						t.Fatalf("%s:%d is above the frontier %d, yet the scan finds a cover", m.Sender, m.Seq, frontier(m.Sender))
					}
				case covered:
					refCovered++
				}
				in(DataMsg{View: e.vc.cv.ID, Epoch: e.vc.cv.Epoch, Meta: m})
			}
			arrive := func(dm DataMsg) {
				if !e.vc.take(e.vc.peers[dm.Meta.Sender], dm) {
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
					e.vc.commitOne(streams["me"].mint(rng), nil)
					e.vc.stage = e.vc.stage[:0]
					for _, p := range e.vc.others {
						p.took = 0
					}
				case op < 10: // the application consumes a few
					for n := rng.Intn(6); n > 0; n-- {
						if it := e.vc.toDeliver.PeekHead(); it != nil {
							e.vc.deliverItem(it, nil)
							e.vc.toDeliver.PopHead()
						}
					}
				case op < 11: // a snapshot: each stream's next few messages, repurged, then frontiers
					var msgs []DataMsg
					recv := map[ident.PID]ident.Seq{}
					for _, p := range e.vc.cv.Members {
						s := streams[p]
						for n := rng.Intn(4); n > 0; n-- {
							if s.seen == len(s.sent) {
								s.mint(rng)
							}
							msgs = append(msgs, DataMsg{View: e.vc.cv.ID, Meta: s.sent[s.seen]})
							s.seen++
						}
						if s.seen > 0 {
							recv[p] = s.sent[rng.Intn(s.seen)].Seq
						}
					}
					for _, dm := range repurge(tc.rel, msgs) {
						offer(dm.Meta, func(dm DataMsg) { e.vc.adopt([]DataMsg{dm}, nil) })
					}
					e.vc.adopt(nil, recv)
				default: // a view change: history starts afresh, frontiers persist
					e.vc.cv.ID++
					e.vc.delivered = queue.New(tc.rel, 0)
				}
				for _, dm := range e.vc.held(all) {
					if dm.Meta.Seq > frontier(dm.Meta.Sender) {
						t.Fatalf("step %d: held %s:%d lies above its frontier %d", step, dm.Meta.Sender, dm.Meta.Seq, frontier(dm.Meta.Sender))
					}
				}
			}
			if fresh < 500 || refCovered == 0 || e.vc.stats.DroppedCovered == 0 {
				t.Fatalf("vacuous run: %d arrivals above the frontier, %d re-arrivals the scan covered, %d dropped",
					fresh, refCovered, e.vc.stats.DroppedCovered)
			}
		})
	}
}

// crossCover claims p0:1 ≺ p1:2, a pair of two senders that no listing can
// name: it lists what enumeration lists, and its annotations list nothing.
type crossCover struct{ obsolete.Enumeration }

func (crossCover) Obsoletes(old, new obsolete.Msg) bool {
	return old.ID() == obsolete.MsgID{Sender: "p0", Seq: 1} && new.ID() == obsolete.MsgID{Sender: "p1", Seq: 2}
}

// TestCrossSenderCoverDropsArrival is the contract on a live group: under a
// relation that claims p0:1 ≺ p1:2 across senders, p0:1 arrives above p0's
// frontier after everyone holds p1:2. The engine purges only what an
// arrival lists within its own sender's stream, so p0:1 is delivered
// everywhere and nothing is dropped as covered.
func TestCrossSenderCoverDropsArrival(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 3, rel: crossCover{}})
	mustSend := func(p ident.PID, seq ident.Seq) {
		t.Helper()
		if err := h.multicast(p, seq, nil, []byte(fmt.Sprintf("%s:%d", p, seq))); err != nil {
			t.Fatal(err)
		}
	}
	mustSend("p1", 1)
	mustSend("p1", 2)
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p1", 2) })
	}
	mustSend("p0", 1) // p0:1 ≺ p1:2 by the relation, ignored
	mustSend("p0", 2) // FIFO behind it: once delivered, p0:1 was decided
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", 2) })
		if !hasSeq(h.rec.Log(p), "p0", 1) {
			t.Errorf("%s never delivered p0:1: a cross-sender pair was honoured", p)
		}
		if got := h.members[p].eng.Stats().DroppedCovered; got != 0 {
			t.Errorf("%s: DroppedCovered = %d, want 0", p, got)
		}
	}
	h.verify()
}

// listingOnly is tagging's relation with Obsoletes booby-trapped: it counts
// the listings it is asked for and records any Obsoletes call, which no path
// of the engine makes — every purge looks up what the arrival lists.
type listingOnly struct {
	obsolete.Enumeration
	mu       sync.Mutex
	listings int
	asked    string // the first Obsoletes call
}

func (r *listingOnly) Obsoletes(old, new obsolete.Msg) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.asked == "" {
		r.asked = fmt.Sprintf("Obsoletes(%s:%d, %s:%d)", old.Sender, old.Seq, new.Sender, new.Seq)
	}
	return r.Enumeration.Obsoletes(old, new)
}

func (r *listingOnly) AppendObsoleted(dst []ident.Seq, new obsolete.Msg, floor ident.Seq) []ident.Seq {
	r.mu.Lock()
	r.listings++
	r.mu.Unlock()
	return r.Enumeration.AppendObsoleted(dst, new, floor)
}

// TestRelationConsultedWithinStream drives a live three-member group through
// every place the engine purges — multicast, with capacity checks against a
// full delivery queue; receive, delivery into the history and stability
// pruning; an ordinary view change whose flush is repurged at the proposal
// and adopted at the install; a join whose sponsor ships a repurged backlog
// the joiner adopts — under tagging with a relation that fails if the engine
// ever calls Obsoletes: each purge reads the arrival's listing and looks
// the numbers up in its own sender's stream.
func TestRelationConsultedWithinStream(t *testing.T) {
	rel := &listingOnly{}
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("n0", "n1", "n2")
	nodes := map[ident.PID]*Node{}
	for _, p := range pids {
		nodes[p] = joinerNode(t, net, p)
	}
	gc := GroupConfig{Relation: rel, ToDeliverCap: 4, StabilityInterval: 2 * time.Millisecond}
	groups := createEverywhere(t, nodes, pids, 1, gc)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	drains := map[ident.PID]*joinDrain{}
	for _, p := range pids {
		drains[p] = newJoinDrain()
		wg.Add(1)
		go drains[p].run(ctx, groups[p], &wg)
	}
	last := map[ident.PID]ident.Seq{}
	tags := tagStreams{}
	send := func(g *Group, p ident.PID, tag uint32) {
		t.Helper()
		m := tags.next(p, tag)
		last[p] = m.Seq
		mctx, mcancel := context.WithTimeout(ctx, 10*time.Second)
		defer mcancel()
		if _, err := g.Multicast(mctx, m, nil); err != nil {
			t.Fatalf("%s:%d: %v", p, m.Seq, err)
		}
	}
	delivered := func(p ident.PID, d *joinDrain) {
		t.Helper()
		for s, seq := range last {
			joinWaitCond(t, fmt.Sprintf("%s delivering %s:%d", p, s, seq), func() bool { return d.hasSeq(s, seq) })
		}
	}

	// n0's application stops consuming: four distinct tags fill its delivery
	// queue, and every later multicast commits only because the capacity
	// check finds the earlier message of its tag to purge. What n1 and n2
	// multicast next fills the others' histories and waits at n0, whose full
	// queue keeps its data inbox shut.
	drains["n0"].setPaused(true)
	for i := uint32(0); i < 12; i++ {
		send(groups["n0"], "n0", 1+i%4)
	}
	for i := uint32(0); i < 6; i++ {
		send(groups[pids[1+i%2]], pids[1+i%2], 1+i%3)
	}
	// A view change while n0 holds what it has not delivered and lacks what
	// the others sent: the flush is repurged at the proposal and adopted at
	// the install.
	if err := groups["n1"].RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	joinWaitCond(t, "view 2 everywhere", func() bool {
		return groups["n0"].View().ID == 2 && groups["n1"].View().ID == 2 && groups["n2"].View().ID == 2
	})
	drains["n0"].setPaused(false)
	for _, p := range pids {
		send(groups[p], p, 2)
	}
	for _, p := range pids {
		delivered(p, drains[p])
	}
	joinWaitCond(t, "stability pruning a history", func() bool {
		return groups["n0"].Stats().StablePruned+groups["n1"].Stats().StablePruned+groups["n2"].Stats().StablePruned > 0
	})

	// A join: n0, the sponsor, holds undelivered messages of n1 and n2
	// again; it repurges the backlog it ships, and the joiner adopts it.
	drains["n0"].setPaused(true)
	send(groups["n1"], "n1", 4)
	send(groups["n1"], "n1", 5)
	send(groups["n2"], "n2", 4)
	// (A Deliver call already waiting may still take the first of them.)
	joinWaitCond(t, "n0 holding undelivered messages", func() bool { return groups["n0"].Stats().ToDeliverLen >= 2 })
	jg, err := joinerNode(t, net, "n3").Join(1, gc, "n1")
	if err != nil {
		t.Fatal(err)
	}
	jd := newJoinDrain()
	wg.Add(1)
	go jd.run(ctx, jg, &wg)
	joinWaitCond(t, "the joiner installing view 3", func() bool { return jd.view() >= 3 })
	drains["n0"].setPaused(false)
	for _, p := range pids {
		send(groups[p], p, 3)
	}
	delivered("n3", jd)

	n0, n3 := groups["n0"].Stats(), jg.Stats()
	rel.mu.Lock()
	defer rel.mu.Unlock()
	if rel.asked != "" {
		t.Fatalf("the engine called %s (beside %d listings)", rel.asked, rel.listings)
	}
	if rel.listings == 0 || n0.PurgedToDeliver == 0 || n3.JoinBacklogRecv == 0 {
		t.Fatalf("vacuous run: %d listings, n0 purged %d, joiner backlog %d", rel.listings, n0.PurgedToDeliver, n3.JoinBacklogRecv)
	}
}
