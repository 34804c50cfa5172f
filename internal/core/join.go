package core

// join.go is dynamic membership: the joiner's side of the handshake (ask
// the contacts until a state transfer installs the first view) and the
// members' side (admit the requester by a view change, then the sponsor
// ships it a snapshot).

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/codec"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/transport"
)

// The join handshake's backoff: retransmission n of the request waits
// min(joinRetry·2ⁿ, 16·joinRetry), scaled by a factor in [1-joinJitter,
// 1+joinJitter].
const (
	joinRetry  = 200 * time.Millisecond
	joinJitter = 0.2
)

// onJoinTick is protocol time for a joining process: the first tick starts
// the handshake, a tick past JoinSpec.GiveUp abandons it, and a tick at a
// backoff step (re)transmits the request to every contact. Giving up is
// terminal: every parked call fails with ErrJoinTimeout, as does everything
// submitted afterwards — the engine never installed a view, so there is
// nothing to recover; the caller stops it and retries with live contacts.
func (t *turn) onJoinTick() {
	js := t.cfg.Join
	if t.joinStart.IsZero() {
		t.joinStart, t.retryAt = t.now, t.now
		if js.GiveUp > 0 {
			t.giveUpAt = t.now.Add(js.GiveUp)
		}
	}
	if !t.giveUpAt.IsZero() && !t.now.Before(t.giveUpAt) {
		t.joining, t.terminal = false, ErrJoinTimeout // endTurn fails what is parked
		return
	}
	if !t.now.Before(t.retryAt) {
		t.sendAll(js.Contacts, JoinReqMsg{})
		t.retryAt = t.retryAt.Add(retryDelay(t.self, t.joinStart, t.retries))
		t.retries++
	}
}

// retryDelay is the wait before retransmission n of a handshake self began
// at start. Its jitter is drawn from a hash of the three, so a herd of
// joiners spreads out while a copied state draws the same delays.
func retryDelay(self ident.PID, start time.Time, n int) time.Duration {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", self, start.UnixNano(), n)
	u := float64(h.Sum64()>>11) / (1 << 53) // uniform in [0, 1)
	return time.Duration(float64(joinRetry<<min(n, 4)) * (1 + joinJitter*(2*u-1)))
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
// this joiner, as the view it names is entered: the join completes.
func (t *turn) adoptTransfer(from ident.PID, m StateMsg) {
	s, size := t.viewState, wireSize(m)
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
	took := t.now.Sub(s.joinStart)
	s.m.joinDur.ObserveDuration(took)
	s.ev.JoinComplete(uint64(s.cv.ID), len(s.cv.Members), took)
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
		t.drop(&t.stats.JoinReqDropped, obs.DropJoinOverflow, from)
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
// the relation bounds the current view's part under GroupConfig.Heal, which
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
