package core

import (
	"log/slog"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/transport"
)

// peer is everything this process keeps about one process: the paper's
// buffer model (§2.3, §5) is a window and an outgoing buffer per receiver
// and a reception frontier per sender, and both ends of that are one
// record. viewState.peers holds a record for every PID ever heard of, our
// own included (for the frontiers only); viewState.others lists the records
// of the current view's other members, which is what the data plane walks.
type peer struct {
	id ident.PID

	// Frontiers in the sender's one stream of sequence numbers, which runs
	// on through views and through the PID leaving and rejoining: they only
	// move forwards and outlive membership.
	recvMax ident.Seq // highest number received from id (adopted ones included)
	stable  ident.Seq // highest number known received by every member (stability.go)
	seeded  ident.Seq // highest number adopted from our own join transfer (see freeSlot)

	link
}

// link is the half of a peer that belongs to one view: the credit window in
// both directions, and what the peer last told us. armPeers zeroes it for
// every record and arms it for the view's other members, so both sides of
// every window return to full by convention and nothing about a departed
// process is kept but its frontiers.
//
// The credit window reproduces the paper's buffer model in a live group:
// every receiver grants each sender a window of GroupConfig.Window buffer slots;
// a sender without credits queues in a bounded per-peer outgoing queue; a
// full outgoing queue blocks the application's multicast. Credits flow back
// as the receiver delivers or purges — purging is what lets a slow SVS
// receiver keep its senders unblocked (§2.3).
type link struct {
	member bool // another member of the current view
	window int  // GroupConfig.Window for a member; 0 (also: flow control disabled) switches the arithmetic off

	// Sender side: what we may send to the peer.
	avail int          // credits held, at most window
	out   *queue.Queue // copies waiting for a credit (nil without a window)
	took  int          // how much of the open transaction's stage the peer took credit for (stageData, flushStage)

	// Receiver-side ledger for the peer as a sender. granted is the total
	// number of credits handed out this view (the initial window included);
	// used counts the data messages received, each of which consumed one of
	// those credits at the sender. granted-used is therefore an upper bound
	// on the credits the sender still holds — zero means the sender is
	// known blocked.
	owed    int // freed slots not yet granted
	granted int
	used    int

	// reported is the reception frontier per sender the peer last gossiped
	// (StableMsg.Recv as received; our own record holds our own report).
	reported map[ident.PID]ident.Seq
}

// peer returns the record of id, creating it on first mention. The data
// plane never calls it: a sender or creditor without a record is dropped.
func (s *viewState) peer(id ident.PID) *peer {
	p := s.peers[id]
	if p == nil {
		p = &peer{id: id}
		s.peers[id] = p
	}
	return p
}

// peerOf returns the record of id (nil: none) given the record resolved
// last. An envelope, the delivery queue and the history all come in runs of
// one sender, so a walk hashes a PID once per run instead of once per
// message.
func (s *viewState) peerOf(id ident.PID, last *peer) *peer {
	if last != nil && last.id == id {
		return last
	}
	return s.peers[id]
}

// armPeers is entering a view's share of the table: every link starts
// afresh, and others becomes the view's other members in view order, each
// with a full window both ways and an empty outgoing queue. Our own record
// is in the table too, for the frontier of our own stream.
func (s *viewState) armPeers() {
	s.own = s.peer(s.self)
	for _, p := range s.peers {
		p.link = link{}
	}
	s.others = s.others[:0]
	for _, id := range s.cv.Members {
		if id == s.self {
			continue
		}
		p := s.peer(id)
		p.link = link{member: true, window: s.cfg.Window, avail: s.cfg.Window, granted: s.cfg.Window}
		if p.window > 0 {
			p.out = queue.New(s.cfg.Relation, s.cfg.OutgoingCap)
		}
		s.others = append(s.others, p)
	}
}

// hasCredit reports whether a message to p could be sent immediately.
func (p *peer) hasCredit() bool { return p.window == 0 || p.avail > 0 }

// takeCredit consumes one credit for a send to p, reporting false when the
// message must be queued instead.
func (p *peer) takeCredit() bool {
	if p.window > 0 {
		if p.avail <= 0 {
			return false
		}
		p.avail--
	}
	return true
}

// credit adds credits granted by p, up to the window, and reports whether
// the grant went past it. An honest grant never does: credits come back
// only for slots a received message used, and flushStage refunds only what
// the transaction took. A grant that would is a buggy or hostile peer's
// way to make this sender overrun its buffers.
func (p *peer) credit(n int) (excess bool) {
	if p.window > 0 && n > 0 {
		p.avail += n
		if excess = p.avail > p.window; excess {
			p.avail = p.window
		}
	}
	return excess
}

// received records one current-view data message arriving from p: it
// consumed one of the credits this receiver granted. It returns the credits
// to grant now (see grantDue).
func (p *peer) received() int {
	if p.window > 0 {
		p.used++
	}
	return p.grantDue()
}

// freed records that one buffer slot previously charged to sender p is
// free again (delivered, purged, or dropped as covered) and returns the
// credits to grant now (see grantDue).
func (p *peer) freed() int {
	if p.window > 0 {
		p.owed++
	}
	return p.grantDue()
}

// grantDue moves what is owed to p into the granted ledger and returns it,
// when it is due: grants go out in batches of a quarter window to bound
// control chatter, but the batching must not strand a sender. One that has
// consumed every credit granted so far is known blocked and cannot generate
// the traffic that would push owed over the threshold, so whatever is owed
// goes at once — on the freed slot, or on the arrival that blocked it.
func (p *peer) grantDue() (n int) {
	if p.owed >= max(p.window/4, 1) || p.owed > 0 && p.used >= p.granted {
		n, p.owed, p.granted = p.owed, 0, p.granted+p.owed
	}
	return n
}

// grant sends p the n credits peer.received or peer.freed returned.
func (s *viewState) grant(p *peer, n int) {
	if n > 0 {
		s.stats.CreditFlushes++
		s.send(p.id, transport.Ctl, CreditMsg{View: s.cv.ID, Epoch: s.cv.Epoch, Credits: n})
	}
}

// onCredit takes a credit grant from a member. A grant from another view
// must not inflate this view's window: both sides re-arm to a full window
// at install, so crediting a stale grant would double-count the slots it
// stood for.
func (s *viewState) onCredit(from ident.PID, m CreditMsg) {
	if m.View != s.cv.ID || m.Epoch != s.cv.Epoch {
		s.drop(&s.stats.CreditsStaleView, obs.DropStaleCredit, from, slog.Uint64("view", uint64(m.View)))
		return
	}
	p := s.peers[from]
	if p == nil || !p.member {
		s.drop(&s.stats.DroppedUnknownSender, obs.DropUnknownSender, from)
		return
	}
	if p.credit(m.Credits) {
		// More credits than p can owe us: keep the window, drop the rest.
		s.drop(&s.stats.CreditsExcess, obs.DropExcessCredit, from, slog.Int("credits", m.Credits))
	}
	s.drainOutgoing(p)
}

// drainOutgoing flushes the pending queue towards p while credits last,
// coalescing the whole run into one DataBatchMsg envelope, whose run is
// cut from the block flushStage's runs come from (cut). The head is only
// popped once its send is paid for and it is copied into the run: a
// message must never be lost between PeekHead and takeCredit.
func (s *viewState) drainOutgoing(p *peer) {
	if p.out == nil {
		return
	}
	run := s.cut(min(p.avail, p.out.Len()))
	for {
		it := p.out.PeekHead()
		if it == nil {
			break
		}
		if !s.inView(it) {
			p.out.PopHead() // stale: the view changed while it waited
			continue
		}
		if !p.takeCredit() {
			break // out of credits: the head stays parked
		}
		run = append(run, msgOf(it))
		p.out.PopHead()
	}
	if env := s.envelope(run); env != nil {
		s.send(p.id, transport.Data, env) // ownership of run transfers with the send
	}
}
