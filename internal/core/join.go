package core

// join.go is dynamic membership: the joiner's side of the handshake (ask
// the contacts until a state transfer installs the first view) and the
// members' side (admit the requester by a view change, then the sponsor
// ships it a snapshot).

import (
	"math/rand"
	"time"

	"repro/internal/codec"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/transport"
)

// joiner is the join handshake of a joining engine, set from Start until
// the state transfer installs the first view or JoinSpec.GiveUp runs out.
// timer retransmits the request meanwhile under capped exponential backoff
// with jitter: attempt counts the retransmissions, rng draws the jitter.
type joiner struct {
	start   time.Time // when the handshake began (joinDur, GiveUp)
	timer   obs.Timer
	attempt int
	rng     *rand.Rand
}

// startJoin opens the handshake; the loop sends the first request.
func (e *Engine) startJoin() {
	j := &joiner{start: e.vc.clock.Now()}
	j.rng = rand.New(rand.NewSource(j.start.UnixNano()))
	j.timer = e.vc.clock.NewTimer(j.delay(e.cfg.Join))
	e.joiner = j
}

// endJoin closes the handshake, if one is running.
func (e *Engine) endJoin() {
	if j := e.joiner; j != nil {
		j.timer.Stop()
		e.joiner = nil
	}
}

// sendJoinReq (re)transmits the admission request to every contact.
func (e *Engine) sendJoinReq() {
	e.vc.sendAll(e.cfg.Join.Contacts, JoinReqMsg{})
}

// onJoinRetry fires on each backoff step: give up if the retry budget is
// spent, otherwise retransmit and arm the next (longer) wait. Giving up is
// terminal: every parked call fails with ErrJoinTimeout, as does everything
// submitted afterwards — the engine never installed a view, so there is
// nothing to recover; the caller stops it and retries with live contacts.
func (e *Engine) onJoinRetry() {
	j := e.joiner
	if g := e.cfg.Join.GiveUp; g > 0 && e.vc.clock.Since(j.start) >= g {
		e.endJoin()
		e.input("", joinTimeout{})
		return
	}
	e.sendJoinReq()
	j.attempt++
	j.timer = e.vc.clock.NewTimer(j.delay(e.cfg.Join))
}

// delay computes the wait before retransmission attempt:
// min(Retry·2ⁿ, RetryMax), scaled by a uniform jitter factor in
// [1-RetryJitter, 1+RetryJitter].
func (j *joiner) delay(js *JoinSpec) time.Duration {
	d := js.Retry
	for i := 0; i < j.attempt && d < js.RetryMax; i++ {
		d *= 2
	}
	d = min(d, js.RetryMax)
	if js.RetryJitter > 0 {
		d = time.Duration(float64(d) * (1 + js.RetryJitter*(2*j.rng.Float64()-1)))
		if d <= 0 {
			d = time.Millisecond
		}
	}
	return d
}

// onJoinState installs the first view of a joining process from the state
// transfer: backlog, frontiers, then the view marker — the application
// sees the inherited state first and the view notification tells it the
// join completed. Duplicate transfers (retries, several responders) after
// the first are ignored.
func (t *turn) onJoinState(from ident.PID, m StateMsg) {
	if !t.joining {
		return
	}
	next := View{Epoch: m.Epoch, ID: m.ID, Members: ident.NewPIDs(m.Members...)}
	// Only a member of the view being transferred may hand it over (the
	// sponsor, or — on the recovery path — the contact that was re-asked);
	// a transfer from anyone else would hijack the joining engine.
	if next.ID == 0 || !next.Includes(t.self) || !next.Includes(from) || from == t.self {
		return
	}
	t.joining = false
	t.enter(next, install{st: m, from: from})
}

// adoptTransfer adopts the state transfer m from a member that admitted
// this joiner, before the view it names is entered.
func (s *viewState) adoptTransfer(from ident.PID, m StateMsg) {
	size := wireSize(m)
	s.ev.StateTransfer("recv", string(from), uint64(m.ID), len(m.Backlog), size)
	s.stats.JoinBacklogRecv = uint64(len(m.Backlog))
	s.stats.JoinBytesRecv = uint64(size)

	// Backlog entries of the installed view never consumed a window slot
	// here; remember them so their consumption grants no credits. Whatever
	// the sender multicasts in later views is numbered above them.
	for _, dm := range m.Backlog {
		if dm.Ref() == m.Ref() {
			p := s.peer(dm.Meta.Sender)
			p.seeded = max(p.seeded, dm.Meta.Seq)
		}
	}
	s.adopt(m.Backlog, m.Recv)
}

// ---- the members' side: admission and the sponsor's transfer ---------------

// maxPendingJoins bounds the admission requests parked while a change is in
// flight. A group wedged at t5 (no Heal, no majority) never serves them,
// and every distinct requester would otherwise stay parked for good. A
// request past the cap is dropped and counted
// (engine_dropped_total{reason=join_overflow}); nothing is lost, since the
// joiner retransmits until a view admits it.
const maxPendingJoins = 256

// onJoinReq parks an admission request; requests arriving mid view change
// wait for the install (the joiner retransmits anyway, but parking spares
// it a retry period).
func (t *turn) onJoinReq(from ident.PID) {
	if t.joining || from == t.self {
		return
	}
	if len(t.joins) >= maxPendingJoins && !t.joins.Contains(from) {
		t.stats.JoinReqDropped++
		t.drop(obs.DropJoinOverflow)
		return
	}
	t.joins = t.joins.Add(from)
	t.serveJoins()
}

// serveJoins resolves parked admission requests once no view change is in
// flight. A requester already in the current view was admitted but lost
// its state transfer (e.g. its sponsor crashed between install and send):
// it gets a fresh snapshot directly. The rest are admitted by a view
// change; if a concurrent change wins without them, their retransmitted
// requests try again.
func (t *turn) serveJoins() {
	if !t.open() || len(t.joins) == 0 {
		return
	}
	pending := t.joins
	t.joins = nil
	if back := pending.Intersect(t.cv.Members); len(back) > 0 {
		t.sendState(t.cv, back)
	}
	if admit := pending.Without(t.cv.Members); len(admit) > 0 {
		t.trigger(admit, nil)
	}
}

// sendState ships one snapshot of this member's state, labelled with the
// view the joiners are to install, to each of them.
func (s *viewState) sendState(next View, joiners ident.PIDs) {
	if len(joiners) == 0 {
		return
	}
	st := s.buildJoinState(next)
	size := wireSize(st)
	for _, j := range joiners {
		s.send(j, transport.Ctl, st)
		s.stats.JoinStatesSent++
		s.stats.JoinBacklogSent += uint64(len(st.Backlog))
		s.stats.JoinBytesSent += uint64(size)
		s.ev.StateTransfer("sent", string(j), uint64(st.ID), len(st.Backlog), size)
	}
}

// buildJoinState snapshots this member's state for a joiner: the view,
// the per-sender reception frontiers, and the backlog — every data message
// still held, of whatever view, repurged so covers that straddle history
// and queue collapse. This is the semantic state transfer: under a purging
// relation the backlog is O(window) however long the group has run. Only
// the relation bounds the current view's part under Config.Heal, which
// keeps it unpruned: a relation that obsoletes little ships it whole.
func (s *viewState) buildJoinState(next View) StateMsg {
	return StateMsg{
		View:    next.Clone(),
		Recv:    s.recvSnapshot(),
		Backlog: repurge(s.cfg.Relation, s.held(func(*queue.Item) bool { return true })),
	}
}

// wireSize is the encoded size of a state-transfer message — what the join
// and merge benchmarks compare between semantic and reliable configurations.
func wireSize(m any) int {
	b, err := codec.Marshal(nil, m)
	if err != nil {
		return 0
	}
	return len(b)
}
