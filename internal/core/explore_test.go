package core

// explore_test.go is an exhaustive explorer of the view change and the
// data plane. It runs each process's viewState itself — step and the data
// plane's methods, the code the engine runs, not a model written beside it
// — over a small group: a breadth-first search through every interleaving
// of control-message delivery (FIFO per link), data-message delivery (FIFO
// per link, apart from control), the application's calls — multicasts,
// deliveries and membership requests, each stepped as the engine steps it
// (call) —, crashes, suspicions and consensus decisions, with states
// deduplicated by a canonical encoding. Every send a process makes
// goes on the world's links through its outlet: PREDs carry what the
// process holds and a sponsor ships what it holds. Consensus is an oracle
// at the seam where the engine has its consensus machine (viewState.cons):
// once a majority of an instance's participants proposed, it may decide any
// value proposed to it, once, and each participant then learns the decision
// from a consensus message of its own, which the oracle answers with it.
// The explorer checks the view change, not Chandra–Toueg.
//
// On every reachable state it checks
//
//	(a) each process enters each view at most once, so at most one
//	    successor of every view it was in;
//	(b) every installer of a view installs the same StateMsg;
//	(c) a proposal leaves out only members its proposer suspects, that
//	    declined, or that were asked to leave (the SVS coverage
//	    precondition of checkPropose);
//	(d) progress: the fair continuation — deliver everything in flight,
//	    suspect exactly the crashed processes, decide every instance a live
//	    majority proposed to — ends with no live member blocked. Without
//	    Heal a member blocked in a change whose live members are a minority
//	    of a side is the documented wedge, not a violation;
//	(f) a process that has just entered a view, at the end of the step
//	    that entered it and replayed its stash, holds its peer table as
//	    checkArmed says: a fresh link to each other member, nothing of a
//	    view in any other record;
//
// and, in a scenario whose application delivers, on every terminal state
//
//	(e) Semantic View Synchrony and the other properties of §3.2: every
//	    process's multicasts, deliveries and installs go into one
//	    check.Recorder — the chaos oracle's checker — and Verify finds
//	    nothing.
//
// A violation fails the test with the shortest trace to it, one event per
// line.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/codec"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

// maxProcs bounds the processes of an explored world.
const maxProcs = 4

// exploreNow is the time of every explored event: no timeout ever fires.
var exploreNow = time.Unix(0, 0)

// xproc is one process of an explored world: its state and what the world
// knows about it.
type xproc struct {
	s        viewState
	crashed  bool
	suspects ident.PIDs      // whom its failure detector suspects
	knows    []string        // consensus instances whose decision it learnt
	views    []ident.ViewRef // the views it entered, the initial one first
	selfQ    []selfMsg       // what it sent itself, not yet processed
	script   []obsolete.Msg  // what it is yet to multicast, in order
	castIn   ident.ViewID    // the view it multicasts its script in; 0: its first
	casts    []check.Event   // what it multicast, each in the view it was sent in
	log      []check.Event   // what its application delivered and installed
	key      []byte          // its part of the world's key, once computed
}

// selfMsg is a message a process sent itself, and how many messages were
// in flight to it on each link when it did: only those may be processed
// before it.
type selfMsg struct {
	msg   wmsg
	older [maxProcs]uint8
}

// wmsg is a control message in flight and its encoding, part of the key.
type wmsg struct {
	m   any
	enc string
}

func wrap(m any) wmsg {
	b, _ := codec.Marshal(nil, m)
	return wmsg{m: m, enc: string(b)}
}

// xinst is one consensus instance of the oracle.
type xinst struct {
	id           string
	ref          ident.ViewRef
	participants ident.PIDs
	proposers    []ident.PID // in proposal order
	values       []wmsg      // their StateMsgs
	decided      int         // 1 + the index of the decided value; 0 while undecided
	pending      ident.PIDs  // participants yet to learn the decision
}

// xreq is a membership request the environment may issue once, while its
// initiator is open in its first view, or in view in if the request names
// one: the requests of a scenario are concurrent, and one issued while a
// change is in flight does nothing. A request issued in a later view can
// overtake that view's install at another member, whose stash then holds
// its INIT and PRED until it enters the view.
type xreq struct {
	by          ident.PID
	join, leave ident.PIDs
	in          ident.ViewID // the view it is issued in; 0: its initiator's first
	fired       bool
}

// world is one state of the explored system. Every slice in it is shared
// between worlds and never written in place: a successor replaces what it
// changes.
type world struct {
	pids      ident.PIDs
	procs     []*xproc                    // shared between worlds until mut copies one
	owned     uint8                       // the procs this world copied already
	dataOwned uint8                       // the owned procs whose data plane it copied too
	links     [maxProcs * maxProcs][]wmsg // links[from*n+to]: control messages in flight, FIFO
	data      [][]wmsg                    // data messages in flight, FIFO per link, as links; nil if none ever were
	app       bool                        // the application delivers, and (e) is checked
	insts     []xinst
	reqs      []xreq
	crashable ident.PIDs // who may still crash
	crashes   int        // how many more may
	decliners ident.PIDs // who sent a decline
	installed map[ident.ViewRef][]byte
	onLink    func(msg any) // if set, sees every message put on a link (TestControlCost)

	violation string // set by the step that broke (a), (b), (c) or (f)
}

func (w *world) idx(p ident.PID) int {
	for i, q := range w.pids {
		if q == p {
			return i
		}
	}
	return -1
}

// mut returns process i for writing: the world's own copy of it, with a
// change record, ledger and stash of its own, which step updates in place,
// whose sends go on w's links and whose consensus machine is w's oracle. Its
// data plane is still shared: see mutData.
func (w *world) mut(i int) *xproc {
	if w.owned&(1<<i) == 0 {
		p := *w.procs[i]
		p.key = nil
		p.s.stash = slices.Clone(p.s.stash)
		if c := p.s.chg; c != nil {
			cc := *c
			cc.awaited, cc.pred, cc.recv = cloneMap(c.awaited), cloneMap(c.pred), cloneMap(c.recv)
			p.s.chg = &cc
		}
		p.s.out, p.s.cons = xout{w, i}, xcons{w, i}
		w.procs[i], w.owned = &p, w.owned|1<<i
	}
	return w.procs[i]
}

// mutData is mut with the process's data plane the world's own as well,
// for a move that writes it. Most moves do not: step writes the data plane
// only when it enters a view (mayEnter), and copying it on every move
// would double what the search costs.
func (w *world) mutData(i int) *xproc {
	p := w.mut(i)
	if w.dataOwned&(1<<i) == 0 {
		p.s = cloneData(p.s)
		w.dataOwned |= 1 << i
	}
	return p
}

// mayEnter reports whether stepping p with msg can enter a view: a
// consensus message (the decision), a state transfer or a probe can, and so
// can any event once p knows a decision it may still await (step then
// awaits it, and the answer installs). input checks the claim.
func (w *world) mayEnter(p *xproc, msg any) bool {
	switch msg.(type) {
	case consensus.Msg, StateMsg, ProbeMsg:
		return true
	}
	for _, id := range p.knows {
		if !p.past(w.insts[w.inst(id)].ref) {
			return true
		}
	}
	return false
}

// cloneData is a copy of s that shares no data plane with it: the queues,
// the peer records, the stage, the pending arrivals and what of each sender
// waits, and the blocks runs are carved from. (No call is ever parked in
// it: see call.)
func cloneData(s viewState) viewState {
	s.toDeliver, s.delivered = cloneQueue(s.toDeliver, s.cfg), cloneQueue(s.delivered, s.cfg)
	peers, recs := make(map[ident.PID]*peer, len(s.peers)), make([]peer, 0, len(s.peers))
	for id, p := range s.peers {
		recs = append(recs, *p)
		q := &recs[len(recs)-1]
		if q.out != nil {
			q.out = cloneQueue(q.out, s.cfg)
		}
		peers[id] = q
	}
	others := make([]*peer, len(s.others))
	for i, p := range s.others {
		others[i] = peers[p.id]
	}
	s.peers, s.others, s.own = peers, others, peers[s.self]
	s.pending, s.waiting, s.stage = slices.Clone(s.pending), maps.Clone(s.waiting), slices.Clone(s.stage)
	s.runs, s.envs = nil, nil
	return s
}

// cloneQueue is a copy of q, whose relation is cfg's: its items.
func cloneQueue(q *queue.Queue, cfg *config) *queue.Queue {
	c := queue.New(cfg.Relation, q.Cap())
	q.EachRef(func(it *queue.Item) bool {
		c.ForceAppend(*it)
		return true
	})
	return c
}

// cloneMap is maps.Clone, but an empty map comes back as a new empty map,
// which costs a header and no table.
func cloneMap[M ~map[K]V, K comparable, V any](m M) M {
	if len(m) == 0 {
		return make(M)
	}
	return maps.Clone(m)
}

// xout is process i's outlet in world w.
type xout struct {
	w *world
	i int
}

func (o xout) Send(to ident.PID, _ ident.GroupID, ch transport.Channel, msg any) error {
	o.w.send(o.w.pids[o.i], to, ch, msg)
	return nil
}

// xcons is process i's consensus machine in world w: the oracle. It
// decides nothing during a call; an instance decides in a move of its own
// (mvDecide), and each participant learns the decision in another (mvLearn).
type xcons struct {
	w *world
	i int
}

// Propose checks (c) on the proposal and enters it into instance id,
// unless the instance decided or the process proposed to it already.
func (c xcons) Propose(id string, participants ident.PIDs, value []byte) ([]consensus.Decision, error) {
	w, self := c.w, c.w.pids[c.i]
	val, err := decodeState(value)
	if err != nil {
		panic(fmt.Sprintf("explore: %s proposed to %s: %v", self, id, err))
	}
	w.checkProposal(c.i, val, participants)
	k := w.inst(id)
	if k < 0 {
		w.insts = append(w.insts[:len(w.insts):len(w.insts)], xinst{id: id, ref: val.Ref(), participants: participants})
		k = len(w.insts) - 1
	}
	in := w.insts[k]
	if in.decided != 0 || slices.Contains(in.proposers, self) {
		return nil, nil
	}
	in.proposers = append(in.proposers[:len(in.proposers):len(in.proposers)], self)
	in.values = append(in.values[:len(in.values):len(in.values)], wmsg{m: val, enc: string(value)})
	w.setInst(k, in)
	return nil, nil
}

// Decided answers for an instance whose decision the process learnt.
func (c xcons) Decided(id string) ([]byte, bool) {
	if k := c.w.inst(id); k >= 0 && slices.Contains(c.w.procs[c.i].knows, id) {
		return c.w.decision(k), true
	}
	return nil, false
}

// Receive answers the consensus message a learn move steps with the
// decision of its instance.
func (c xcons) Receive(_ ident.PID, m consensus.Msg) []consensus.Decision {
	return []consensus.Decision{{Instance: m.Instance, Value: c.w.decision(c.w.inst(m.Instance))}}
}

// Recheck has nothing to move on: no instance waits on a coordinator.
func (xcons) Recheck() []consensus.Decision { return nil }

// suspects is a failure detector's fixed verdict: it suspects the
// processes listed.
type suspects ident.PIDs

func (s suspects) Suspected(p ident.PID) bool { return ident.PIDs(s).Contains(p) }

func (w *world) clone() *world {
	c := *w
	c.procs = append([]*xproc(nil), w.procs...)
	c.owned, c.dataOwned = 0, 0
	return &c
}

// send queues msg from p to q on channel ch, if q is a process of the
// world: data on their data link, control on their control link, or in p's
// own queue, with how many messages were in flight to p on each link when
// it was sent.
func (w *world) send(p, q ident.PID, ch transport.Channel, msg any) {
	i, j, n := w.idx(p), w.idx(q), len(w.pids)
	if m, ok := msg.(PredMsg); ok && m.Decline {
		w.decliners = w.decliners.Add(p)
	}
	switch {
	case j < 0, ch == transport.Data && w.doomed(j, msg):
	case ch == transport.Data:
		l := w.dataLink(i*n + j)
		w.setData(i*n+j, append(l[:len(l):len(l)], wrap(msg)))
	case i == j:
		s := selfMsg{msg: wrap(msg)}
		for r := 0; r < n; r++ {
			s.older[r] = uint8(len(w.links[r*n+j]))
		}
		pr := w.mut(j)
		pr.selfQ = append(pr.selfQ[:len(pr.selfQ):len(pr.selfQ)], s)
	default:
		l := w.links[i*n+j]
		w.links[i*n+j] = append(l[:len(l):len(l)], wrap(msg))
		if w.onLink != nil {
			w.onLink(msg)
		}
	}
}

// dataLink is data link k's messages in flight.
func (w *world) dataLink(k int) []wmsg {
	if w.data == nil {
		return nil
	}
	return w.data[k]
}

// setData replaces data link k.
func (w *world) setData(k int, l []wmsg) {
	if w.data == nil {
		if l == nil {
			return
		}
		w.data = make([][]wmsg, maxProcs*maxProcs)
	} else {
		w.data = slices.Clone(w.data)
	}
	w.data[k] = l
}

// setInst replaces instance k.
func (w *world) setInst(k int, in xinst) {
	w.insts = slices.Clone(w.insts)
	w.insts[k] = in
}

func (w *world) inst(id string) int {
	for i := range w.insts {
		if w.insts[i].id == id {
			return i
		}
	}
	return -1
}

// input steps process i with one event, as the engine's loop does, and
// checks (a), (b) and (f) on the views the step entered. A step that left
// the process open with data arrivals pending ends the turn (endTurn), which
// takes them, as the engine's loop does; no other turn's end changes
// anything the explorer sees.
func (w *world) input(i int, from ident.PID, msg any) {
	p := w.mut(i)
	if w.mayEnter(p, msg) {
		p = w.mutData(i)
	}
	history := p.s.delivered // entering a view starts a new one
	fx := step(&p.s, event{from: from, msg: msg, now: exploreNow, detector: suspects(p.suspects)})
	if w.dataOwned&(1<<i) == 0 && p.s.delivered != history {
		panic(fmt.Sprintf("explore: %s entered a view on a data plane it shares with other worlds (%T)", w.pids[i], msg))
	}
	for _, f := range fx {
		w.entered(i, f)
	}
	w.dropDoomed(i)
	if len(p.s.pending) > 0 && p.s.open() {
		w.mutData(i).s.endTurn()
	}
}

// call is process i's application calling: the world steps req and ends
// the turn (endTurn), as the engine's loop does, and returns the answer.
// An explored call is answered in its turn — a multicast is made only
// while its process is open and under no flow control, a delivery only
// from a queue that holds something, a membership request only while its
// initiator is open — so nothing of a call outlives the move.
func (w *world) call(i int, req *request) result {
	p := w.mutData(i)
	w.input(i, "", req)
	p.s.endTurn()
	if len(p.s.replies) != 1 || p.s.replies[0] != req || req.res.err != nil || len(p.s.multicastQ)+len(p.s.deliverWaiters) > 0 {
		panic(fmt.Sprintf("explore: %s's call of kind %d was not answered in its turn (%v)", w.pids[i], req.kind, req.res.err))
	}
	p.s.multicastQ, p.s.deliverWaiters, p.s.replies = nil, nil, nil
	return req.res
}

// entered checks (a), (b) and (f) on install f, a view process i entered
// in the step just made, whose stash the step replayed.
func (w *world) entered(i int, f install) {
	self := w.pids[i]
	if f.chg != nil {
		w.checkInstall(i, f.st)
	}
	p := w.mut(i)
	if err := checkArmed(&p.s); err != nil && w.violation == "" {
		w.violation = fmt.Sprintf("(f) %s entered %v: %v", self, f.view.Ref(), err)
	}
	for _, v := range p.views {
		if v == f.view.Ref() && w.violation == "" {
			w.violation = fmt.Sprintf("(a) %s entered %v twice", self, v)
		}
	}
	p.views = append(p.views[:len(p.views):len(p.views)], f.view.Ref())
}

// doomed reports whether process j can only drop data message m whenever it
// arrives: m is of a view j has left, or of j's current view while j is in
// an ordinary change, which ends only by entering a later view.
func (w *world) doomed(j int, m any) bool {
	dm, ok := m.(DataMsg)
	s := &w.procs[j].s
	if !ok || dm.View > s.cv.ID {
		return false
	}
	return dm.Ref() != s.cv.Ref() || s.chg != nil && !s.chg.merge()
}

// dropDoomed drops the data in flight to process i that it can only drop
// (doomed): a step that blocked it or entered a view dooms what it has not
// yet received.
func (w *world) dropDoomed(i int) {
	for j := range w.pids {
		k := j*len(w.pids) + i
		l := w.dataLink(k)
		for len(l) > 0 && w.doomed(i, l[0].m) {
			l = l[1:]
		}
		if len(l) < len(w.dataLink(k)) {
			w.setData(k, l)
		}
	}
}

// checkArmed is property (f), what must hold of s's peer table whenever a
// view has just been entered: others is the view's other members in view
// order, each with a fresh link — full window both ways, an empty outgoing
// queue under a window and none without, nothing staged, owed or reported
// — every other record, our own included, holds nothing that belongs to a
// view, and no member of the view counts as a former one.
func checkArmed(s *viewState) error {
	var want, got []ident.PID
	for _, id := range s.cv.Members {
		if id != s.self {
			want = append(want, id)
		}
	}
	for _, p := range s.others {
		got = append(got, p.id)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("others = %v, want %v (view %v)", got, want, s.cv.Members)
	}
	w := s.cfg.Window
	for id, p := range s.peers {
		l, fresh := p.link, link{}
		if p.member {
			fresh = link{member: true, window: w, avail: w, granted: w}
			if (w > 0) != (l.out != nil) || l.out != nil && (l.out.Len() != 0 || l.out.Cap() != s.cfg.OutgoingCap) {
				return fmt.Errorf("member %s: outgoing queue %v not fresh for window %d", id, l.out, w)
			}
			l.out = nil
		}
		if p.id != id || p.member != (id != s.self && s.cv.Includes(id)) || !reflect.DeepEqual(l, fresh) {
			return fmt.Errorf("record %s (id %s) entered view %v with link %+v, want %+v", id, p.id, s.cv.Members, l, fresh)
		}
	}
	if f := s.former.Intersect(s.cv.Members); len(f) > 0 {
		return fmt.Errorf("members %v of view %v count as former", f, s.cv.Members)
	}
	return nil
}

// decision is the value instance k decided.
func (w *world) decision(k int) []byte {
	in := w.insts[k]
	return []byte(in.values[in.decided-1].enc)
}

// checkProposal is property (c): process i proposed val among
// participants.
func (w *world) checkProposal(i int, val StateMsg, participants ident.PIDs) {
	var leaving ident.PIDs
	for _, r := range w.reqs {
		if r.fired {
			leaving = leaving.Union(r.leave)
		}
	}
	for _, q := range participants.Without(ident.NewPIDs(val.Members...)) {
		if !w.procs[i].suspects.Contains(q) && !w.decliners.Contains(q) && !leaving.Contains(q) && w.violation == "" {
			w.violation = fmt.Sprintf("(c) %s proposed %v without %s, which it does not suspect, which did not decline and was not asked to leave",
				w.pids[i], val.Members, q)
		}
	}
}

// checkInstall is property (b).
func (w *world) checkInstall(i int, st StateMsg) {
	raw, _ := codec.Marshal(nil, st)
	ref := st.Ref()
	if prev, ok := w.installed[ref]; ok {
		if !bytes.Equal(prev, raw) && w.violation == "" {
			w.violation = fmt.Sprintf("(b) %s installed %v as %v, another installer differently", w.pids[i], ref, st.Members)
		}
		return
	}
	m := make(map[ident.ViewRef][]byte, len(w.installed)+1)
	for k, v := range w.installed {
		m[k] = v
	}
	m[ref] = raw
	w.installed = m
}

// move is one event of the environment: kind, and the link, processes,
// instance or value it concerns.
type move struct {
	kind moveKind
	a, b int
}

type moveKind uint8

const (
	mvDeliver   moveKind = iota // process the head of link a
	mvSuspect                   // process a comes to suspect process b
	mvLearn                     // process b learns the decision of instance a
	mvDecide                    // the oracle decides instance a on value b
	mvRequest                   // membership request a is issued
	mvCrash                     // process a crashes
	mvData                      // process the head of data link a
	mvMulticast                 // process a multicasts the next message of its script (mayCast): a one-message request
	mvApp                       // the application of process a delivers its queue's head: a one-slot request
)

// ready reports whether the head of link k may be processed now: k is
// from*n+to, and the process's own queue when from == to. A process's own
// sends enter its inbox at once, so a message from another process can come
// before its head only if it was in flight when that head was sent.
func (w *world) ready(k int) bool {
	n := len(w.pids)
	from, to := k/n, k%n
	p := w.procs[to]
	switch {
	case p.crashed:
		return false
	case from == to:
		return len(p.selfQ) > 0
	}
	return len(w.links[k]) > 0 && (len(p.selfQ) == 0 || p.selfQ[0].older[from] > 0)
}

// head is the message at the head of link k.
func (w *world) head(k int) any {
	n := len(w.pids)
	if k/n == k%n {
		return w.procs[k%n].selfQ[0].msg.m
	}
	return w.links[k][0].m
}

// label describes m, a move enabled in w, for a trace.
func (w *world) label(m move) string {
	n := len(w.pids)
	switch m.kind {
	case mvDeliver:
		return fmt.Sprintf("%s receives %s from %s", w.pids[m.a%n], describe(w.head(m.a)), w.pids[m.a/n])
	case mvSuspect:
		return fmt.Sprintf("%s suspects %s", w.pids[m.a], w.pids[m.b])
	case mvLearn:
		return fmt.Sprintf("%s learns the decision of %s", w.pids[m.b], w.insts[m.a].id)
	case mvDecide:
		in := w.insts[m.a]
		return fmt.Sprintf("consensus decides %s = %v (%s's proposal)", in.id, in.values[m.b].m.(StateMsg).Members, in.proposers[m.b])
	case mvRequest:
		r := w.reqs[m.a]
		return fmt.Sprintf("%s requests join %v leave %v", r.by, r.join, r.leave)
	case mvData:
		return fmt.Sprintf("%s receives %s from %s", w.pids[m.a%n], describe(w.data[m.a][0].m), w.pids[m.a/n])
	case mvMulticast:
		p := w.procs[m.a]
		return fmt.Sprintf("%s multicasts %v in %v", w.pids[m.a], p.script[0].ID(), p.s.cv.Ref())
	case mvApp:
		it := w.procs[m.a].s.toDeliver.PeekHead()
		if it.Kind == queue.Control {
			return fmt.Sprintf("%s delivers %v", w.pids[m.a], it.Ctl)
		}
		return fmt.Sprintf("%s delivers %v of view %d", w.pids[m.a], it.Meta.ID(), it.View)
	default:
		return string(w.pids[m.a]) + " crashes"
	}
}

// do makes move m in w.
func (w *world) do(m move) {
	switch m.kind {
	case mvDeliver:
		n := len(w.pids)
		from, to := m.a/n, m.a%n
		msg := w.head(m.a)
		p := w.mut(to)
		if from == to {
			p.selfQ = p.selfQ[1:]
		} else {
			w.links[m.a] = w.links[m.a][1:]
			q := make([]selfMsg, len(p.selfQ))
			for i, s := range p.selfQ {
				if s.older[from] > 0 {
					s.older[from]--
				}
				q[i] = s
			}
			p.selfQ = q
		}
		w.input(to, w.pids[from], msg)
	case mvSuspect:
		p, q := w.mut(m.a), w.pids[m.b]
		p.suspects = p.suspects.Add(q)
		w.input(m.a, "", fd.Event{P: q, Suspected: true})
	case mvLearn:
		w.learn(m.a, m.b)
	case mvDecide:
		w.decide(m.a, m.b)
	case mvRequest:
		r := w.reqs[m.a]
		w.reqs = slices.Clone(w.reqs)
		w.reqs[m.a].fired = true
		w.call(w.idx(r.by), &request{kind: reqViewChange, join: r.join, leave: r.leave})
	case mvCrash:
		w.crash(m.a)
	case mvData:
		n := len(w.pids)
		msg := w.data[m.a][0].m
		w.setData(m.a, w.data[m.a][1:])
		step(&w.mutData(m.a%n).s, event{data: []transport.Envelope{{From: w.pids[m.a/n], Msg: msg}}})
	case mvMulticast:
		req := &request{kind: reqMulticast}
		req.one[0].Meta = w.procs[m.a].script[0]
		req.batch = req.one[:]
		res := w.call(m.a, req)
		p := w.procs[m.a]
		p.script = p.script[1:]
		p.casts = append(p.casts[:len(p.casts):len(p.casts)], check.Event{Kind: check.EvDeliver, Meta: req.one[0].Meta, View: res.view})
	case mvApp:
		req := &request{kind: reqDeliver}
		req.dst = req.oneD[:]
		w.call(m.a, req)
		d, p := req.oneD[0], w.procs[m.a]
		ev := check.Event{Kind: check.EvDeliver, Meta: d.Meta, View: ident.ViewRef{Epoch: d.Epoch, ID: d.View}}
		if d.Kind != DeliverData {
			ev = check.Event{Kind: check.EvInstall, Ref: d.NewView.Ref(), Members: d.NewView.Members}
		}
		p.log = append(p.log[:len(p.log):len(p.log)], ev)
	}
}

// moves lists every event enabled in w, and which of them the fair
// continuation takes (-1 for none): a pending suspicion of a crashed
// process first, then a delivery, a decision learnt, and last the decision
// of an instance a live majority proposed to, on the first live proposer's
// value. An eager move, if there is one, is the only one.
func (w *world) moves() (out []move, fair int) {
	fair = -1
	if m, ok := w.eager(); ok {
		return []move{m}, 0
	}
	// first makes out[from:] the fair continuation's choice, if it has
	// none yet and there is one.
	first := func(from int) {
		if fair < 0 && len(out) > from {
			fair = from
		}
	}
	for k := 0; k < len(w.pids)*len(w.pids); k++ {
		if w.ready(k) {
			out = append(out, move{mvDeliver, k, 0})
		}
	}
	deliveries := len(out)
	out = append(out, w.suspicions()...)
	switch {
	case len(out) > deliveries:
		fair = deliveries // a pending suspicion goes first
	case deliveries > 0:
		fair = 0
	}
	learns := len(out)
	for k := range w.insts {
		for _, j := range w.learners(k) {
			out = append(out, move{mvLearn, k, j})
		}
	}
	first(learns)
	for k, in := range w.insts {
		if in.decided != 0 || 2*len(in.proposers) <= len(in.participants) {
			continue
		}
		live, firstLive := 0, -1
		for v, p := range in.proposers {
			if !w.procs[w.idx(p)].crashed {
				live++
				if firstLive < 0 {
					firstLive = v
				}
			}
		}
		at := len(out) + firstLive
		for v := range in.values {
			out = append(out, move{mvDecide, k, v})
		}
		if 2*live > len(in.participants) {
			first(at)
		}
	}
	for r, req := range w.reqs {
		if !req.fired && w.procs[w.idx(req.by)].mayIssue(req) {
			out = append(out, move{mvRequest, r, 0})
		}
	}
	if w.crashes > 0 {
		for _, p := range w.crashable {
			if i := w.idx(p); !w.procs[i].crashed {
				out = append(out, move{mvCrash, i, 0})
			}
		}
	}
	n := len(w.pids)
	for k := 0; k < n*n; k++ {
		if len(w.dataLink(k)) > 0 && !w.procs[k%n].crashed {
			out = append(out, move{mvData, k, 0})
		}
	}
	for i, p := range w.procs {
		if len(p.script) > 0 && p.mayCast() {
			out = append(out, move{mvMulticast, i, 0})
		}
	}
	return out, fair
}

// eager is the move a world whose application delivers takes before any
// other, if there is one. Its processes run like engines whose application
// always waits in Deliver, so the loop hands it every item as soon as it is
// queued; a process handles what it sent itself as soon as it may; and a
// decision reaches its participants at once. What is left to interleave is
// the data plane against the change: each multicast, each data message's
// arrival, each control message between processes.
func (w *world) eager() (move, bool) {
	if !w.app {
		return move{}, false
	}
	n := len(w.pids)
	for i, p := range w.procs {
		switch {
		case p.crashed:
		case p.s.toDeliver.Len() > 0:
			return move{mvApp, i, 0}, true
		case w.ready(i*n + i):
			return move{mvDeliver, i*n + i, 0}, true
		}
	}
	for k := range w.insts {
		if ls := w.learners(k); len(ls) > 0 {
			return move{mvLearn, k, ls[0]}, true
		}
	}
	return move{}, false
}

// suspicions lists a live process in a change coming to suspect a crashed
// member of the change it has no PRED from. Only the quorum rule reads
// suspicions (AutoEvict is off): it asks about the members that have not
// contributed, and with Heal the split about those that have. A suspicion
// the change never asks about is the same as one that comes right after the
// next change opens, so leaving it out until then changes nothing but the
// number of states.
func (w *world) suspicions() []move {
	var out []move
	for i, p := range w.procs {
		c := p.s.chg
		if p.crashed || c == nil {
			continue
		}
		for j, q := range w.pids {
			if w.procs[j].crashed && c.audience.Contains(q) && (p.s.cfg.Heal || !c.from.Contains(q)) && !p.suspects.Contains(q) {
				out = append(out, move{mvSuspect, i, j})
			}
		}
	}
	return out
}

// mayIssue reports whether p, r's initiator, may issue r now: it is live,
// in no change, and in the view r is issued in.
func (p *xproc) mayIssue(r xreq) bool {
	if p.crashed || !p.s.open() {
		return false
	}
	if r.in == 0 {
		return len(p.views) == 1
	}
	return p.s.cv.ID == r.in
}

// mayCast reports whether p may multicast the next message of its script
// now: it is live and open, and in its first view or, if the script names
// one, in that view.
func (p *xproc) mayCast() bool {
	if p.crashed || !p.s.open() {
		return false
	}
	if p.castIn == 0 {
		return len(p.views) == 1
	}
	return p.s.cv.ID == p.castIn
}

// past reports whether p can no longer await the instance of ref: it is at
// its end, or its view is ref's or a later one of ref's lineage. Whether
// and when it learns that decision changes nothing.
func (p *xproc) past(ref ident.ViewRef) bool {
	return p.s.terminal != nil || (p.s.cv.Epoch == ref.Epoch && p.s.cv.ID >= ref.ID)
}

// learners lists the live participants of decided instance k that have yet
// to learn its decision and could still await it.
func (w *world) learners(k int) []int {
	in := w.insts[k]
	if in.decided == 0 {
		return nil
	}
	var out []int
	for _, q := range in.pending {
		if p := w.procs[w.idx(q)]; !p.crashed && !p.past(in.ref) {
			out = append(out, w.idx(q))
		}
	}
	return out
}

func (w *world) decide(k, v int) {
	in := w.insts[k]
	in.decided, in.pending = v+1, in.participants
	w.setInst(k, in)
}

func (w *world) learn(k, j int) {
	in := w.insts[k]
	in.pending = in.pending.Remove(w.pids[j])
	w.setInst(k, in)
	p := w.mut(j)
	p.knows = append(p.knows[:len(p.knows):len(p.knows)], in.id)
	w.input(j, "", consensus.Msg{Instance: in.id})
}

// crash stops process i: what it has not yet delivered, and what it sent
// that has not arrived, is lost.
func (w *world) crash(i int) {
	w.crashes--
	p := w.mut(i)
	p.crashed, p.selfQ = true, nil
	n := len(w.pids)
	for j := 0; j < n; j++ {
		w.links[i*n+j], w.links[j*n+i] = nil, nil
		w.setData(i*n+j, nil)
		w.setData(j*n+i, nil)
	}
}

// describe renders a control message for a trace.
func describe(m any) string {
	switch m := m.(type) {
	case InitMsg:
		if m.Far != nil {
			return fmt.Sprintf("INIT(merge %v+%v)", m.Ref(), m.Far.Ref())
		}
		return fmt.Sprintf("INIT(%v join %v leave %v)", m.Ref(), m.Join, m.Leave)
	case PredMsg:
		if m.Decline {
			return fmt.Sprintf("PRED(%v, decline)", m.Change)
		}
		return fmt.Sprintf("PRED(%v)", m.Change)
	case StateMsg:
		return fmt.Sprintf("STATE(%v)", m.View)
	case DataMsg:
		return fmt.Sprintf("DATA(%v of view %d)", m.Meta.ID(), m.View)
	default:
		return fmt.Sprintf("%T%+v", m, m)
	}
}

// key is w's canonical encoding: two worlds with one key behave alike.
func (w *world) key(b []byte) []byte {
	for _, p := range w.procs {
		if p.key == nil {
			// The same for every world that shares p: it is cached in p,
			// and mut clears it in a copy.
			p.key = w.procKey(p)
		}
		b = append(b, p.key...)
	}
	nn := len(w.pids) * len(w.pids)
	for k := 0; k < 2*nn; k++ {
		l := w.links[k%nn]
		if k >= nn {
			l = w.dataLink(k - nn)
		}
		b = append(b, '|')
		for _, m := range l {
			b = append(append(b, m.enc...), ';')
		}
	}
	for k, in := range w.insts {
		b = append(b, in.id...)
		b = w.appendPIDs(b, in.participants)
		b = w.appendPIDs(b, in.proposers)
		for _, v := range in.values {
			b = append(append(b, v.enc...), ';')
		}
		b = strconv.AppendInt(b, int64(in.decided), 10)
		for _, j := range w.learners(k) {
			b = append(b, byte(j))
		}
	}
	for _, r := range w.reqs {
		b = strconv.AppendBool(b, r.fired)
	}
	b = strconv.AppendInt(b, int64(w.crashes), 10)
	return w.appendPIDs(b, w.decliners)
}

// procKey is the canonical encoding of process p. It leaves out the
// counters (viewState.stats): they tell what happened along one run, and
// nothing reads them.
func (w *world) procKey(p *xproc) []byte {
	b := []byte{'#'}
	if p.crashed {
		// It never acts again, and nothing reads what it was.
		return append(b, 'x')
	}
	ref := func(r ident.ViewRef) {
		b = strconv.AppendUint(b, uint64(r.Epoch), 16)
		b = append(b, '/')
		b = strconv.AppendUint(b, uint64(r.ID), 10)
		b = append(b, ';')
	}
	msg := func(m any) {
		b, _ = codec.Marshal(b, m)
		b = append(b, ';')
	}
	s := &p.s
	for _, m := range p.selfQ {
		b = append(append(b, m.msg.enc...), ';')
		b = append(b, m.older[:len(w.pids)]...)
	}
	b = w.appendPIDs(b, p.suspects)
	for _, id := range p.knows {
		if !p.past(w.insts[w.inst(id)].ref) {
			b = append(b, id...)
			b = append(b, ',')
		}
	}
	for _, v := range p.views {
		ref(v)
	}
	ref(s.cv.Ref())
	b = w.appendPIDs(b, s.cv.Members)
	b = w.appendPIDs(b, s.joins)
	b = w.appendPIDs(b, s.former)
	b = strconv.AppendBool(b, s.joining)
	if s.terminal != nil {
		b = append(b, s.terminal.Error()...)
	}
	for _, env := range s.stash {
		b = append(b, env.From...)
		msg(env.Msg)
	}
	if c := s.chg; c != nil {
		b = append(b, '!')
		ref(c.next)
		b = w.appendPIDs(b, c.audience)
		for _, id := range sortedKeys(c.awaited) {
			b = append(b, id...)
			b = append(b, ',')
		}
		b = strconv.AppendBool(b, c.proposed)
		for _, side := range c.sides {
			b = w.appendPIDs(b, side)
		}
		for _, ps := range []ident.PIDs{c.from, c.declined, c.join, c.leave} {
			b = w.appendPIDs(b, ps)
		}
		if len(c.pred)+len(c.recv) > 0 {
			msg(PredMsg{Msgs: sortedPred(c.pred), Recv: c.recv})
		}
		b = strconv.AppendUint(b, c.bytesIn, 10)
	}
	// The data plane: the queue and the history, every record's frontiers
	// and window, the pending arrivals; and what the process multicast and
	// its application delivered.
	item := func(it *queue.Item) bool {
		if it.Kind == queue.Control {
			b = append(b, 'v')
			ref(it.Ctl.(View).Ref())
			return true
		}
		b = append(b, byte(w.idx(it.Meta.Sender)))
		b = strconv.AppendUint(b, uint64(it.Meta.Seq), 10)
		ref(ident.ViewRef{Epoch: ident.Epoch(it.Epoch), ID: ident.ViewID(it.View)})
		return true
	}
	s.toDeliver.EachRef(item)
	b = append(b, '|')
	s.delivered.EachRef(item)
	for _, id := range w.pids {
		b = append(b, '|')
		if r := s.peers[id]; r != nil {
			for _, n := range []int{int(r.recvMax), int(r.stable), int(r.seeded), r.avail, r.owed, r.granted, r.used} {
				b = strconv.AppendInt(append(b, ','), int64(n), 10)
			}
		}
	}
	if len(s.pending) > 0 {
		msg(&DataBatchMsg{Msgs: s.pending})
	}
	for _, evs := range [][]check.Event{p.casts, p.log} {
		b = append(b, '|')
		for _, ev := range evs {
			b = append(b, byte(ev.Kind), byte(w.idx(ev.Meta.Sender)))
			b = strconv.AppendUint(b, uint64(ev.Meta.Seq), 10)
			ref(ev.View)
			ref(ev.Ref)
		}
	}
	return b
}

// appendPIDs encodes a process list by the processes' places in w.
func (w *world) appendPIDs(b []byte, ps []ident.PID) []byte {
	for _, p := range ps {
		b = append(b, byte(w.idx(p)))
	}
	return append(b, ';')
}

// fairMove is the fair continuation's next event in w, if any.
func (w *world) fairMove() (move, bool) {
	ms, fair := w.moves()
	if fair < 0 {
		return move{}, false
	}
	return ms[fair], true
}

// blocked names a live member of w blocked in a change, other than in the
// wedge of a minority without Heal; "" if there is none.
func (w *world) blocked() string {
	for i, p := range w.procs {
		s := p.s
		if p.crashed || s.terminal != nil || s.joining || s.chg == nil {
			continue
		}
		wedged := false
		for _, side := range s.chg.sides {
			live := 0
			for _, q := range side {
				if !w.procs[w.idx(q)].crashed {
					live++
				}
			}
			wedged = wedged || (!s.cfg.Heal && 2*live <= len(side))
		}
		if !wedged {
			return string(w.pids[i])
		}
	}
	return ""
}

// scenario is a small group to explore, and how many states it has.
type scenario struct {
	name   string
	world  func() *world
	states int
}

// newWorld starts the processes of pids in view v, under tagging, with
// heal.
func newWorld(pids ident.PIDs, v View, heal bool) *world {
	return newWorldOf(pids, v, GroupConfig{Relation: tagging, Heal: heal})
}

// newWorldOf starts the processes of pids in view v, each configured by gc.
func newWorldOf(pids ident.PIDs, v View, gc GroupConfig) *world {
	w := &world{pids: pids}
	for _, p := range pids {
		cfg := config{Self: p, GroupConfig: gc}
		w.procs = append(w.procs, &xproc{s: newViewState(&cfg, v, nil), views: []ident.ViewRef{v.Ref()}})
	}
	return w
}

var scenarios = []scenario{
	{
		// Three members; p0 asks p2 to leave while p1 asks j to join, and
		// p1 may crash at any point, its INIT's flood half done or its PRED
		// half sent. j is joining: the sponsor's transfer installs its first
		// view (it does not retransmit its request).
		name: "three members, a leave and a join, a crash",
		world: func() *world {
			ps := ident.NewPIDs
			w := newWorld(ps("j", "p0", "p1", "p2"), View{ID: 1, Members: ps("p0", "p1", "p2")}, false)
			w.procs[0].s.cv, w.procs[0].s.joining, w.procs[0].views = View{}, true, []ident.ViewRef{{}} // j
			w.reqs = []xreq{{by: "p0", leave: ps("p2")}, {by: "p1", join: ps("j")}}
			w.crashable, w.crashes = ps("p1"), 1
			return w
		},
		states: 145071,
	},
	{
		// Under Heal, the two sides of a 2|1 split, {p0,p1} and {p2}, merge
		// back after p0 probed p2. p1 was since expelled by a newer view of
		// its lineage it learnt of, and is alive to decline.
		name: "heal: a 2|1 split merges back, an expelled member declines",
		world: func() *world {
			ps := ident.NewPIDs
			a := View{ID: 2, Members: ps("p0", "p1")}
			b := View{Epoch: SplitEpoch(ident.ViewRef{ID: 1}, ps("p2")), ID: 2, Members: ps("p2")}
			w := newWorld(ps("p0", "p1", "p2"), a, true)
			w.procs[1].s.cv = View{ID: 3, Members: ps("p0")}
			w.procs[1].s.terminal = ErrExpelled
			w.procs[2].s.cv = b
			w.procs[2].s.armPeers()
			w.procs[2].views = []ident.ViewRef{b.Ref()}
			w.send("p2", "p0", transport.Ctl, ProbeMsg{b})
			return w
		},
		states: 6194,
	},
	{
		// Three members; p0 multicasts two updates of one item, the second
		// obsoleting the first, and then a reliable message, under
		// KEnumeration{K: 4}, while p1 asks for an ordinary change. Every
		// multicast, every data message's arrival and every delivery of the
		// application is a move of its own, and (e) checks each terminal
		// state's record.
		name: "data: three members multicast through a change",
		world: func() *world {
			ps := ident.NewPIDs("p0", "p1", "p2")
			rel := obsolete.KEnumeration{K: 4}
			w := newWorldOf(ps, View{ID: 1, Members: ps}, GroupConfig{Relation: rel})
			w.app = true
			tr := obsolete.NewKTracker(rel.K)
			for _, direct := range [][]ident.Seq{nil, {1}, nil} {
				seq, annot := tr.Next(direct...)
				w.procs[0].script = append(w.procs[0].script, obsolete.Msg{Sender: "p0", Seq: seq, Annot: annot})
			}
			w.reqs = []xreq{{by: "p1"}}
			return w
		},
		states: 41902,
	},
	{
		// Two members; p0 asks for a change of view 1, and p1 asks for
		// another once it is in view 2. p1's INIT and PRED for view 3 can
		// reach p0 before p0 enters view 2: p0 stashes them and replays them
		// as it enters it, in the same step.
		name: "a change overtakes an install",
		world: func() *world {
			ps := ident.NewPIDs("p0", "p1")
			w := newWorld(ps, View{ID: 1, Members: ps}, false)
			w.reqs = []xreq{{by: "p0"}, {by: "p1", in: 2}}
			return w
		},
		states: 283,
	},
	{
		// p0 alone admits the joiner p1, then multicasts two messages in
		// view 2 and asks for view 3. Either message can reach p1 before
		// the sponsor's transfer does: p1 holds it while it joins and takes
		// it once it enters view 2, or (e) finds p1 installing view 3
		// without it.
		name: "data: a joiner takes the next view's data that came before its transfer",
		world: func() *world {
			ps := ident.NewPIDs
			w := newWorldOf(ps("p0", "p1"), View{ID: 1, Members: ps("p0")}, GroupConfig{Relation: tagging})
			w.procs[1].s.cv, w.procs[1].s.joining, w.procs[1].views = View{}, true, []ident.ViewRef{{}}
			w.app = true
			tags := tagStreams{}
			w.procs[0].script = []obsolete.Msg{tags.next("p0", 1), tags.next("p0", 2)}
			w.procs[0].castIn = 2
			w.reqs = []xreq{{by: "p0", join: ps("p1")}, {by: "p0", in: 2}}
			return w
		},
		states: 236,
	},
}

// verify is property (e): every process's multicasts, deliveries and
// installs, in one check.Recorder; "" when Verify finds nothing.
func (w *world) verify() string {
	r := check.NewRecorder(w.procs[0].s.cfg.Relation)
	r.SetInitialViewRef(w.procs[0].views[0])
	for i, p := range w.procs {
		for _, ev := range p.casts {
			r.MulticastRef(ev.Meta, ev.View)
		}
		for _, ev := range p.log {
			if ev.Kind == check.EvInstall {
				r.InstallRef(w.pids[i], ev.Ref, ev.Members)
			} else {
				r.DeliverRef(w.pids[i], ev.Meta, ev.View)
			}
		}
	}
	errs := r.Verify()
	if len(errs) == 0 {
		return ""
	}
	return fmt.Sprintf("(e) %v", errors.Join(errs...))
}

// exploreResult is what one exploration found.
type exploreResult struct {
	states    int
	violation string // the broken property and the shortest trace to it
}

// explore searches every state reachable from start breadth first,
// checking (a)–(c) and (f) on every step, (e) on every terminal state of
// a world whose application delivers and, once every state is known, (d)
// on each of them. States are told apart by a 64-bit hash of their key, with a
// seed drawn per run: two of a few hundred thousand states collide with
// odds below one in 10^8.
func explore(start *world) exploreResult {
	// Every move copies the process it changes, and most copies are garbage
	// as soon as their key is found seen: a larger heap target halves the
	// collector's work for some more memory.
	defer debug.SetGCPercent(debug.SetGCPercent(200))
	seed := maphash.MakeSeed()
	var buf []byte
	hash := func(w *world) uint64 {
		buf = w.key(buf[:0])
		return maphash.Bytes(seed, buf)
	}
	// A state is its parent and the index of the move that made it, so a
	// trace is replayed from start rather than kept; and the state its fair
	// continuation goes to next, -1 if it ends there.
	type node struct {
		parent, move, fair int32
	}
	nodes := []node{{parent: -1}}
	seen := map[uint64]int32{hash(start): 0}
	replay := func(n int32) (*world, []string) {
		var path []int32
		for ; n > 0; n = nodes[n].parent {
			path = append(path, nodes[n].move)
		}
		var lines []string
		w := start
		for i := len(path) - 1; i >= 0; i-- {
			ms, _ := w.moves()
			lines = append(lines, w.label(ms[path[i]]))
			w = w.clone()
			w.do(ms[path[i]])
		}
		return w, lines
	}
	trace := func(lines []string) string {
		return "shortest trace:\n  " + strings.Join(lines, "\n  ")
	}

	frontier, ids := []*world{start}, []int32{0}
	blocked := map[int32]string{} // the states where the fair continuation ends blocked
	for len(frontier) > 0 {
		var next []*world
		var nextIDs []int32
		for f, w := range frontier {
			ms, fair := w.moves()
			nodes[ids[f]].fair = -1
			if len(ms) == 0 && w.app {
				if v := w.verify(); v != "" {
					_, lines := replay(ids[f])
					return exploreResult{states: len(nodes), violation: v + "\n" + trace(lines)}
				}
			}
			if fair < 0 {
				if who := w.blocked(); who != "" {
					blocked[ids[f]] = "(d) " + who + " is blocked for good"
				}
			}
			for mi, m := range ms {
				s := w.clone()
				s.do(m)
				h := hash(s)
				id, ok := seen[h]
				if !ok {
					id = int32(len(nodes))
					seen[h] = id
					nodes = append(nodes, node{parent: ids[f], move: int32(mi)})
					if s.violation != "" {
						_, lines := replay(id)
						return exploreResult{states: len(nodes), violation: s.violation + "\n" + trace(lines)}
					}
					next, nextIDs = append(next, s), append(nextIDs, id)
				}
				if mi == fair {
					nodes[ids[f]].fair = id
				}
			}
		}
		frontier, ids = next, nextIDs
	}

	// (d): a state ends as its fair successor does. The first state found
	// whose continuation ends blocked has the shortest trace.
	verdict := make([]int8, len(nodes)) // 0 unknown, 1 good, 2 blocked
	var chain []int32
	for n := range nodes {
		if verdict[n] != 0 {
			continue
		}
		for m := int32(n); verdict[m] == 0; m = nodes[m].fair {
			chain = append(chain, m)
			if nodes[m].fair < 0 {
				verdict[m] = 1
				if _, ok := blocked[m]; ok {
					verdict[m] = 2
				}
				break
			}
		}
		v := verdict[chain[len(chain)-1]]
		if last := chain[len(chain)-1]; verdict[last] == 0 {
			v = verdict[nodes[last].fair]
		}
		for _, m := range chain {
			verdict[m] = v
		}
		chain = chain[:0]
		if v == 2 {
			w, lines := replay(int32(n))
			for {
				m, ok := w.fairMove()
				if !ok {
					break
				}
				lines = append(lines, w.label(m))
				w = w.clone()
				w.do(m)
			}
			return exploreResult{states: len(nodes), violation: "(d) " + w.blocked() + " is blocked for good\n" + trace(lines)}
		}
	}
	return exploreResult{states: len(nodes)}
}

// TestExplore runs every scenario to its last state.
func TestExplore(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			start := time.Now()
			r := explore(sc.world())
			if r.violation != "" {
				t.Fatalf("%s", r.violation)
			}
			t.Logf("%d states in %v", r.states, time.Since(start).Round(time.Millisecond))
			if sc.states != 0 && r.states != sc.states {
				t.Errorf("%d states, want %d", r.states, sc.states)
			}
		})
	}
}

// TestExplorerCatchesInjectedBugs is the explorer's own guard: each
// mutation is one line of a file of the package changed in a copy that the
// go command overlays on the package, and the explorer run on it must fail
// with a shortest trace that names the property it breaks.
func TestExplorerCatchesInjectedBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the explorer once per mutation")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		goCmd = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	for _, tc := range []struct {
		name, file, line, mutant, property string
	}{
		{
			name:     "propose with a live member outstanding",
			file:     "viewchange.go",
			line:     "return // still waiting on a live member",
			mutant:   "continue",
			property: "(c)",
		},
		{
			name:     "a decline returned from before it is counted",
			file:     "viewchange.go",
			line:     "c.declined = c.declined.Add(from)",
			mutant:   "return",
			property: "(d)",
		},
		{
			name:     "step enters a view without replaying its stash",
			file:     "viewchange.go",
			line:     "for _, env := range f.replay {",
			mutant:   "for _, env := range f.replay[:0] {",
			property: "(d)",
		},
		{
			name:     "held leaves the newest history entry out of a PRED",
			file:     "snapshot.go",
			line:     "s.delivered.EachRef(collect)",
			mutant:   "s.delivered.EachRef(collect); out = out[:max(len(out)-1, 0)]",
			property: "(e)",
		},
		{
			name:     "a member that is not open drops data instead of holding it",
			file:     "protocol.go",
			line:     "case s.terminal != nil:",
			mutant:   "case !s.open():",
			property: "(e)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := filepath.Abs(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(orig, []byte(tc.line)); n != 1 {
				t.Fatalf("%q occurs %d times in %s, want once", tc.line, n, tc.file)
			}
			dir := t.TempDir()
			mutant := filepath.Join(dir, tc.file)
			if err := os.WriteFile(mutant, bytes.Replace(orig, []byte(tc.line), []byte(tc.mutant), 1), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, _ := json.Marshal(map[string]any{"Replace": map[string]string{src: mutant}})
			overlayFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command(goCmd, "test", "-overlay", overlayFile, "-count=1", "-run", "^TestExplore$", ".").CombinedOutput()
			if err == nil {
				t.Fatalf("the explorer passed the mutant:\n%s", out)
			}
			if !bytes.Contains(out, []byte(tc.property)) || !bytes.Contains(out, []byte("shortest trace:")) {
				t.Fatalf("the explorer failed the mutant without a %s trace:\n%s", tc.property, out)
			}
			t.Logf("caught:\n%s", out)
		})
	}
}
