// Package consensus implements the uniform consensus building block that
// the SVS view-change protocol takes as given (§3.1: "A consensus protocol
// is assumed to be available ... all correct processes eventually decide
// the same value and the decided value is one of the proposed values").
//
// The implementation is the classic Chandra–Toueg ◇S rotating-coordinator
// algorithm over the package transport channels and a fd.Detector oracle:
//
//	round r, coordinator c = participants[r mod n]:
//	  1. every process sends its (estimate, ts) to c;
//	  2. c gathers a majority of estimates and proposes the one with the
//	     highest timestamp;
//	  3. every process waits for c's proposal — adopting it with timestamp
//	     r+1 and ACKing — or NACKs when the detector suspects c;
//	  4. c gathers a majority of ACKs, giving the round up at a NACK; the
//	     value is then locked, and c decides and broadcasts DECIDE, which
//	     every process relays once when it decides.
//
// Initial estimates carry timestamp 0 and an estimate adopted in round r
// carries r+1, as Chandra–Toueg's rounds count from 1: a value locked in
// round 0 outranks every initial estimate, so a later coordinator that
// hears a majority proposes it again. Safety requires only a majority of
// correct processes; the detector is used for liveness alone. Decisions are
// cached so that stragglers asking about a decided instance are answered
// immediately; a decided instance keeps its id and decision alone. What a
// peer can make a machine keep is bounded: the instances it never proposed
// to, decided or not (MaxUnproposed), and the messages one instance buffers
// (MaxBuffered). Past a cap the oldest such instance, or the message for
// the furthest round, makes room and is counted: a flood displaces what is
// least likely to be needed, and once it stops, honest traffic flows again.
//
// A Machine runs every instance of one group as a message-driven state
// machine with no goroutine, lock, channel or timer of its own: whoever owns
// it feeds it proposals, received messages and detector rechecks, one call
// at a time, and each call returns the instances that decided during it.
// An SVS group member holds its machine in its own state and drives it from
// its transition function, on its engine's loop; Service is a stand-alone
// driver with a blocking Propose.
package consensus

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
)

// msgType enumerates the wire message types of the algorithm.
type msgType uint8

const (
	msgEstimate msgType = iota + 1
	msgPropose
	msgAck
	msgNack
	msgDecide
)

func (t msgType) String() string {
	switch t {
	case msgEstimate:
		return "estimate"
	case msgPropose:
		return "propose"
	case msgAck:
		return "ack"
	case msgNack:
		return "nack"
	case msgDecide:
		return "decide"
	default:
		return fmt.Sprintf("msgType(%d)", uint8(t))
	}
}

// Msg is the wire message of one consensus instance.
type Msg struct {
	Instance string
	Round    int
	Type     msgType
	Value    []byte
	Ts       int // estimate timestamp: 0 initially, r+1 once adopted in round r
}

func init() {
	codec.Register[Msg](codec.TConsensusMsg, appendMsg, readMsg)
}

func appendMsg(dst []byte, m Msg) []byte {
	dst = codec.AppendString(dst, m.Instance)
	dst = codec.AppendVarint(dst, int64(m.Round))
	dst = codec.AppendByte(dst, byte(m.Type))
	dst = codec.AppendBytes(dst, m.Value)
	return codec.AppendVarint(dst, int64(m.Ts))
}

func readMsg(r *codec.Reader) (Msg, error) {
	var m Msg
	m.Instance = r.String()
	m.Round = int(r.Varint())
	m.Type = msgType(r.Byte())
	m.Value = r.Bytes()
	m.Ts = int(r.Varint())
	return m, r.Err()
}

// Decision is the outcome of one instance, as a Machine input returns it.
type Decision struct {
	Instance string
	Value    []byte
}

// Machine holds the consensus instances of one group. It is not safe for
// concurrent use: one owner calls Propose, Receive and Recheck in turn, and
// every message the machine sends goes through the send function it was
// given, including those to itself, which come back through Receive.
type Machine struct {
	self  ident.PID
	send  func(to ident.PID, m Msg)
	det   fd.Detector
	clock obs.Clock // read only to time consensus_decide_seconds
	ev    *obs.Events
	// The counts are what the registry reads: allocated apart from the
	// machine, so its source holds nothing else of it, and atomic, because
	// a snapshot reads them while the owner runs.
	decisions *atomic.Uint64 // instances decided (locally observed)
	nacks     *atomic.Uint64 // coordinator suspicions turned into NACKs
	// Instances forgotten past MaxUnproposed, messages dropped past
	// MaxBuffered.
	instanceDrops, inboxDrops *atomic.Uint64
	// Nil histograms record nothing.
	rounds  *obs.Histogram // rounds a proposing process ran until deciding
	latency *obs.Histogram // propose-to-decide wall time

	instances map[string]*instance
	// opened lists, oldest first, the instances peers' messages opened; the
	// ones this machine has since proposed to are pruned by the next open.
	opened []*instance
	// live lists the proposed instances in proposal order, the ones Recheck
	// visits; decided ones are pruned by the next Propose or Recheck.
	live []*instance
}

// NewMachine returns an empty machine for process self. send transmits a
// message of an instance; det is the oracle asked whether the coordinator
// an instance waits on is suspected. ob supplies
// the clock, metrics and events; nil uses the wall clock with no
// instrumentation.
func NewMachine(self ident.PID, send func(to ident.PID, m Msg), det fd.Detector, ob *obs.Obs) *Machine {
	decisions, nacks := new(atomic.Uint64), new(atomic.Uint64)
	instanceDrops, inboxDrops := new(atomic.Uint64), new(atomic.Uint64)
	ob.AddSource(func(emit obs.Emit) {
		emit("consensus_decisions_total", obs.KindCounter, decisions.Load())
		emit("consensus_nacks_total", obs.KindCounter, nacks.Load())
		emit("consensus_dropped_total", obs.KindCounter, instanceDrops.Load(), obs.L("reason", "instance_overflow"))
		emit("consensus_dropped_total", obs.KindCounter, inboxDrops.Load(), obs.L("reason", "inbox_overflow"))
	})
	return &Machine{
		self:          self,
		send:          send,
		det:           det,
		clock:         ob.Clock(),
		ev:            ob.Events(),
		decisions:     decisions,
		nacks:         nacks,
		instanceDrops: instanceDrops,
		inboxDrops:    inboxDrops,
		rounds:        ob.Histogram("consensus_rounds", obs.CountBuckets),
		latency:       ob.Histogram("consensus_decide_seconds", obs.DurationBuckets),
		instances:     make(map[string]*instance),
	}
}

// phase is where a proposed instance waits within its current round.
type phase uint8

const (
	gathering phase = iota + 1 // coordinator: a majority of estimates
	awaiting                   // the coordinator's proposal, or its suspicion
	replying                   // coordinator: a majority of ACKs, or a NACK
)

// instance is one consensus instance.
type instance struct {
	id           string
	proposed     bool
	participants ident.PIDs
	est          []byte
	ts           int
	round        int
	phase        phase
	start        time.Time // when the local proposal arrived
	got          []Msg     // coordinator: estimates gathered this round
	acks         int       // coordinator: ACKs gathered this round
	inbox        []Msg     // received messages no phase has consumed yet
	decided      bool
	decision     []byte
}

// The caps on what peers can make a machine keep, each over ten times the
// most an honest run has needed: instances that peers' messages opened and
// this machine has not proposed to have been at most one at a time, and an
// instance has buffered at most 14 messages (nine participants).
const (
	MaxUnproposed = 16
	MaxBuffered   = 256
)

// open creates the record of an instance a peer's message names, first
// forgetting the oldest instance peers opened if MaxUnproposed of them are
// still not proposed to. A forgotten decision can still be learnt: a later
// Propose sends an estimate, which a participant that decided answers.
func (m *Machine) open(id string) *instance {
	m.opened = slices.DeleteFunc(m.opened, func(in *instance) bool { return in.proposed })
	if len(m.opened) >= MaxUnproposed {
		delete(m.instances, m.opened[0].id)
		m.opened = slices.Delete(m.opened, 0, 1)
		m.instanceDrops.Add(1)
	}
	in := &instance{id: id}
	m.instances[id] = in
	m.opened = append(m.opened, in)
	return in
}

// Backlog reports what peers have made the machine keep: the instances it
// has not proposed to, decided or not, and the most messages one instance
// buffers.
func (m *Machine) Backlog() (unproposed, buffered int) {
	for _, in := range m.instances {
		if !in.proposed {
			unproposed++
		}
		buffered = max(buffered, len(in.inbox))
	}
	return unproposed, buffered
}

// Decided returns the decision of instance id, if it has one.
func (m *Machine) Decided(id string) ([]byte, bool) {
	if in, ok := m.instances[id]; ok && in.decided {
		return in.decision, true
	}
	return nil, false
}

// Propose starts instance id among participants with the given initial
// value. All participants must propose the same id and participant set;
// values may differ. The decided value is one of the proposed values and is
// the same at every deciding process. Proposing to an instance this process
// already proposed to, or that has decided, does nothing.
func (m *Machine) Propose(id string, participants ident.PIDs, value []byte) ([]Decision, error) {
	if !participants.Contains(m.self) {
		return nil, fmt.Errorf("consensus: %s is not a participant of %q", m.self, id)
	}
	in, ok := m.instances[id]
	if !ok {
		in = &instance{id: id}
		m.instances[id] = in
	}
	if in.proposed {
		return nil, nil
	}
	// Proposed to, the instance is no longer a peer's to forget, decided or
	// not.
	in.proposed = true
	if in.decided {
		return nil, nil
	}
	in.participants, in.est, in.start = participants.Clone(), value, m.clock.Now()
	m.live = append(slices.DeleteFunc(m.live, (*instance).done), in)
	m.startRound(in)
	return m.advance(in, nil), nil
}

// Receive handles one message of an instance. A decide takes effect at
// once, even at a process that never proposed; a decided instance answers
// any other message with its decision, so stragglers terminate; anything
// else waits in the instance until a phase consumes it. An instance
// buffering MaxBuffered messages drops the one for the furthest round, the
// last a phase would consume: its oldest, or msg if none is further.
func (m *Machine) Receive(from ident.PID, msg Msg) []Decision {
	in, ok := m.instances[msg.Instance]
	if !ok {
		in = m.open(msg.Instance)
	}
	switch {
	case in.decided:
		if msg.Type != msgDecide {
			m.send(from, Msg{Instance: in.id, Type: msgDecide, Value: in.decision})
		}
		return nil
	case msg.Type == msgDecide:
		return m.decide(in, msg.Value, nil)
	}
	if len(in.inbox) >= MaxBuffered {
		m.inboxDrops.Add(1)
		far := 0
		for i, b := range in.inbox {
			if b.Round > in.inbox[far].Round {
				far = i
			}
		}
		if in.inbox[far].Round <= msg.Round {
			return nil
		}
		in.inbox = slices.Delete(in.inbox, far, far+1)
	}
	in.inbox = append(in.inbox, msg)
	return m.advance(in, nil)
}

// Recheck re-tests against the detector the coordinator each instance
// awaits a proposal from, NACKing the suspected ones.
func (m *Machine) Recheck() []Decision {
	var out []Decision
	m.live = slices.DeleteFunc(m.live, (*instance).done)
	for _, in := range m.live {
		if in.phase == awaiting {
			out = m.advance(in, out)
		}
	}
	return out
}

func (in *instance) done() bool { return in.decided }

// coord is the coordinator of the instance's current round.
func (in *instance) coord() ident.PID { return in.participants[in.round%len(in.participants)] }

// startRound is phase 1 of the current round: send our estimate to the
// coordinator, then wait as coordinator or as participant.
func (m *Machine) startRound(in *instance) {
	coord := in.coord()
	m.send(coord, Msg{Instance: in.id, Round: in.round, Type: msgEstimate, Value: in.est, Ts: in.ts})
	in.phase, in.got, in.acks = awaiting, nil, 0
	if coord == m.self {
		in.phase = gathering
	}
}

// advance runs the rotating-coordinator rounds of a proposed instance as
// far as its buffered messages and the detector allow, appending a decision
// to out.
func (m *Machine) advance(in *instance, out []Decision) []Decision {
	majority := len(in.participants)/2 + 1
	for in.proposed && !in.decided {
		coord := in.coord()
		switch in.phase {
		case gathering:
			// Phase 2: a majority of estimates; propose the freshest.
			in.got = append(in.got, in.take(msgEstimate)...)
			if len(in.got) < majority {
				return out
			}
			best := in.got[0]
			for _, e := range in.got[1:] {
				if e.Ts > best.Ts {
					best = e
				}
			}
			for _, p := range in.participants {
				m.send(p, Msg{Instance: in.id, Round: in.round, Type: msgPropose, Value: best.Value})
			}
			in.phase = awaiting
		case awaiting:
			// Phase 3: adopt the coordinator's proposal, or NACK on suspicion.
			reply := msgAck
			if props := in.take(msgPropose); len(props) > 0 {
				in.est, in.ts = props[0].Value, in.round+1
			} else if m.det.Suspected(coord) {
				m.nacks.Add(1)
				reply = msgNack
			} else {
				return out
			}
			m.send(coord, Msg{Instance: in.id, Round: in.round, Type: reply})
			if coord != m.self {
				in.round++
				m.startRound(in)
				continue
			}
			in.phase = replying
		case replying:
			// Phase 4: a majority of ACKs locks the value; a NACK fails the
			// round.
			nacked := false
			for _, r := range in.take(msgAck, msgNack) {
				if r.Type == msgNack {
					nacked = true
					break
				}
				in.acks++
			}
			switch {
			case nacked:
				in.round++
				m.startRound(in)
			case in.acks >= majority:
				return m.decide(in, in.est, out)
			default:
				return out
			}
		}
	}
	return out
}

// take removes and returns the buffered messages of the current round of
// the given types. Messages of earlier rounds can no longer be consumed and
// are dropped on the way.
func (in *instance) take(types ...msgType) []Msg {
	var out []Msg
	kept := in.inbox[:0]
	for _, m := range in.inbox {
		switch {
		case m.Round < in.round:
		case m.Round == in.round && slices.Contains(types, m.Type):
			out = append(out, m)
		default:
			kept = append(kept, m)
		}
	}
	clear(in.inbox[len(kept):])
	in.inbox = kept
	return out
}

// decide records the decision and relays it once to every other
// participant: the reliable broadcast of the decision. A bystander that
// never proposed knows no participants and relays nothing. The instance
// keeps its id and decision alone.
func (m *Machine) decide(in *instance, v []byte, out []Decision) []Decision {
	m.decisions.Add(1)
	if in.proposed {
		// Rounds and latency only make sense at a process that actually
		// ran the protocol; a bystander learning via the decide flood would
		// skew both towards zero.
		m.rounds.Observe(float64(in.round + 1))
		m.latency.ObserveDuration(m.clock.Since(in.start))
		m.ev.ConsensusDecision(in.id, in.round+1)
	}
	for _, p := range in.participants {
		if p != m.self {
			m.send(p, Msg{Instance: in.id, Type: msgDecide, Value: v})
		}
	}
	*in = instance{id: in.id, proposed: in.proposed, decided: true, decision: v}
	return append(out, Decision{Instance: in.id, Value: v})
}
