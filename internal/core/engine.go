package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// Engine is one group member running the SVS protocol of Figure 1: the
// part of a hosted Group that the application drives with Multicast /
// Deliver / RequestViewChange. A Node starts it (start) and stops it
// (stop).
type Engine struct {
	cfg config

	reqC  chan *request
	doneC chan struct{}

	// pub is the facade's mirror of the loop's view and counters
	// (metrics.go), written by the loop when a turn ends (publish).
	pub *published

	// ---- state below is owned exclusively by the run loop ----

	// vc is the group member as a value (viewchange.go): the view change
	// and its consensus machine, the data plane of t1–t3 and the
	// application's calls on it, with its protocol time, the counters
	// (vc.stats), the clock, the histograms and the event log. The loop
	// steps it with every input it reads — every call and the stop, every
	// data, control and consensus envelope, every suspicion and every tick
	// it asks for (wake) —, ends each turn (endTurn) and publishes it;
	// its sends and the machine's leave through the endpoint. The calls a
	// turn answered (vc.replies) are released by publish once the facade
	// reflects the turn, so a call that has returned always finds its own
	// effect in Stats and View.
	vc viewState
}

type reqKind uint8

const (
	reqMulticast reqKind = iota + 1
	reqDeliver
	reqViewChange
	reqStop
)

// OutMsg is one message of a MulticastBatch: the tracker-minted metadata
// and its payload. The payload bytes are given to the group, not lent to
// the call (see Engine.MulticastBatch).
type OutMsg struct {
	Meta    obsolete.Msg
	Payload []byte
}

type request struct {
	kind reqKind
	ctx  context.Context

	batch []OutMsg   // multicast: the messages to commit (one[:] for Multicast)
	done  int        // committed prefix of batch (mid-batch park progress)
	join  ident.PIDs // view change
	leave ident.PIDs
	dst   []Delivery // deliver: destination the loop fills (oneD[:] for Deliver)

	// one and oneD back the length-1 batches of the single-message calls,
	// so Multicast and Deliver allocate nothing beyond the pooled request.
	one  [1]OutMsg
	oneD [1]Delivery

	// parkedAt stamps a multicast entering the parked queue, so the flow
	// control stall it suffered can be observed at commit (parkDur). Zero
	// when the engine has no park histogram or the request never parked.
	parkedAt time.Time

	res  result // the loop's one reply, sent on resC once the turn ends
	resC chan result
}

// result is the loop's reply to a request: the view the last message of a
// multicast was sent in, the number of deliveries filled into dst, or an
// error.
type result struct {
	view ident.ViewRef
	n    int
	err  error
}

// requestPool recycles request structs across Multicast/Deliver/
// RequestViewChange calls. The loop sends exactly one reply per request, so
// a request whose reply has been consumed can be reused safely; requests
// abandoned on ctx cancellation or engine stop are left to the garbage
// collector because a late reply may still arrive on their channel.
var requestPool = sync.Pool{New: func() any {
	return &request{resC: make(chan result, 1)}
}}

func getRequest(kind reqKind, ctx context.Context) *request {
	req := requestPool.Get().(*request)
	req.kind = kind
	req.ctx = ctx
	return req
}

func putRequest(req *request) {
	resC := req.resC
	*req = request{resC: resC} // drop every borrowed payload and slice
	requestPool.Put(req)
}

// start validates cfg and runs an engine on it: the group's Data and Ctl
// inboxes are registered, so no peer traffic can race the loop's first
// read, and the protocol loop is launched. A joining engine starts asking
// its contacts for admission.
func start(cfg config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Endpoint.Register(cfg.Group)
	initial := cfg.InitialView
	if cfg.Join != nil {
		// A joiner has no view until the state transfer installs one.
		initial = View{}
	}
	e := &Engine{cfg: cfg, reqC: make(chan *request, 64), doneC: make(chan struct{})}
	e.vc = newViewState(&e.cfg, initial.Clone(), cfg.Endpoint)
	// The consensus machine sends straight to the endpoint too, best effort,
	// on the control channel, and holds nothing of the engine: a cycle
	// through it would keep a stopped engine with a finalizer from ever
	// being collected.
	send := func(to ident.PID, m consensus.Msg) { _ = cfg.Endpoint.Send(to, cfg.Group, transport.Ctl, m) }
	e.vc.cons = consensus.NewMachine(cfg.Self, send, cfg.Detector, cfg.Obs)
	e.pub = &published{view: e.vc.cv.Clone(), watched: e.vc.watching().Clone()}
	e.pub.export(cfg.Obs)
	go e.run()
	return e, nil
}

// never is the timer of a loop with nothing due.
type never struct{}

func (never) C() <-chan time.Time { return nil }
func (never) Stop()               {}

// stop terminates the engine and returns once its loop has exited: it asks
// the loop to step the value to its end (a stop request), so parked
// Multicast and Deliver calls return ErrStopped. stop does not close the
// endpoint or the detector; the node owns those. A second stop finds the
// loop gone and returns.
func (e *Engine) stop() {
	select {
	case e.reqC <- &request{kind: reqStop}:
		<-e.doneC
	case <-e.doneC:
	}
}

// Self returns this process's identifier.
func (e *Engine) Self() ident.PID { return e.cfg.Self }

// View returns the most recently installed view.
func (e *Engine) View() View {
	e.pub.mu.Lock()
	defer e.pub.mu.Unlock()
	return e.pub.view.Clone()
}

// Stats returns the engine counters as of the loop's last completed turn.
func (e *Engine) Stats() Stats { return e.pub.Stats() }

// Multicast submits a data message to the group (transition t2). meta must
// come from an obsolescence tracker over this process's stream: sequence
// numbers must be contiguous starting at 1. The call blocks while the
// protocol exercises flow control (buffers full or view change in
// progress) until the message is accepted, ctx is done, or the engine
// stops. On success it returns the global identifier of the view the
// message was multicast in. payload is never copied and must never be
// written again (see MulticastBatch).
func (e *Engine) Multicast(ctx context.Context, meta obsolete.Msg, payload []byte) (ident.ViewRef, error) {
	req := getRequest(reqMulticast, ctx)
	req.one[0] = OutMsg{Meta: meta, Payload: payload}
	req.batch = req.one[:]
	res, _ := e.roundTrip(ctx, req)
	return res.view, res.err
}

// MulticastBatch submits a run of data messages in one request round-trip
// through the protocol loop: one channel operation, one wakeup and one
// staged send flush cover the whole run, and each peer receives the run
// as a single coalesced envelope. Every message is individually
// flow-controlled, purge-checked and sequence-checked, in order, exactly as
// Multicast would, and a view change may land between two messages of the
// batch. The one difference is in its favour: the batch is purged against
// itself before anything of it is delivered or sent, so a message that a
// later one of the same batch obsoletes may reach nobody — which calling
// Multicast once per message only achieves when no one consumes in between.
//
// The msgs slice is borrowed until the call returns and is the caller's
// again afterwards. The payload bytes are not: nothing copies them, so the
// delivery queue, the history, the per-peer outgoing queues and — over an
// in-process transport — every peer's queues alias them until the message
// is delivered or purged everywhere. They belong to the group from the
// call on and must never be written again; refill a batch with fresh
// payload memory, not by overwriting the old. The same holds for
// Multicast's payload.
//
// The call blocks until every message has committed.
// On success it returns the view the last message was sent in. On error,
// messages preceding the failure were committed and sent; the failed
// message and everything after it were not.
func (e *Engine) MulticastBatch(ctx context.Context, msgs []OutMsg) (ident.ViewRef, error) {
	if len(msgs) == 0 {
		return e.View().Ref(), nil
	}
	req := getRequest(reqMulticast, ctx)
	req.batch = msgs
	res, _ := e.roundTrip(ctx, req)
	return res.view, res.err
}

// Deliver returns the next item of the delivery queue (transition t1),
// blocking until one is available. This pull interface is deliberate: the
// paper uses a down-call style "to ensure that messages not being
// processed are kept in the protocol buffers", where they stay purgeable.
func (e *Engine) Deliver(ctx context.Context) (Delivery, error) {
	req := getRequest(reqDeliver, ctx)
	req.dst = req.oneD[:]
	res, d := e.roundTrip(ctx, req)
	return d, res.err
}

// DeliverBatch fills dst with as many immediately available deliveries as
// it holds, blocking until at least one is available (or ctx is done or
// the engine stops), and returns the number filled. One request
// round-trip through the protocol loop drains a whole run of the delivery
// queue — the pull-style counterpart of MulticastBatch.
//
// dst is written by the protocol loop; if the call returns early on ctx
// cancellation the loop may still fill dst afterwards, so a cancelled
// call's dst must not be reused until the engine stops. (Cancellation is
// intended for shutdown, where that is moot.)
func (e *Engine) DeliverBatch(ctx context.Context, dst []Delivery) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	req := getRequest(reqDeliver, ctx)
	req.dst = dst
	res, _ := e.roundTrip(ctx, req)
	return res.n, res.err
}

// RequestViewChange triggers the view change protocol (transition t4),
// asking for the given processes to leave the group. It returns as soon as
// the INIT is disseminated; the new view arrives as a DeliverView item.
func (e *Engine) RequestViewChange(leave ...ident.PID) error {
	return e.RequestMembershipChange(nil, ident.NewPIDs(leave...))
}

// RequestMembershipChange is the general form of RequestViewChange: the
// next view admits the processes in join and removes the processes in
// leave. Joined processes must be joining the group (Node.Join) —
// the view change only makes them members; the state transfer that follows
// the install is what brings them up to date. A process in both sets
// leaves.
func (e *Engine) RequestMembershipChange(join, leave ident.PIDs) error {
	req := getRequest(reqViewChange, context.Background())
	req.join = join.Clone()
	req.leave = leave.Clone()
	res, _ := e.roundTrip(context.Background(), req)
	return res.err
}

// roundTrip submits req to the protocol loop, waits for its one reply and
// recycles req, returning beside the reply what the loop filled into a
// single Deliver's slot (zero for any other call). A reply that is there
// wins over a cancel or a stop that landed with it: the call took effect.
// A request abandoned on ctx or stop is not recycled: a late reply — and,
// for a deliver, late writes into dst — can still land on it.
func (e *Engine) roundTrip(ctx context.Context, req *request) (res result, d Delivery) {
	select {
	case e.reqC <- req:
		var gaveUp error
		select {
		case res = <-req.resC:
		case <-ctx.Done():
			gaveUp = ctx.Err()
		case <-e.doneC:
			gaveUp = ErrStopped
		}
		if gaveUp != nil {
			select {
			case res = <-req.resC:
			default:
				return result{err: gaveUp}, d
			}
		}
		d = req.oneD[0]
	case <-ctx.Done():
		res.err = ctx.Err()
	case <-e.doneC:
		res.err = ErrStopped
	}
	putRequest(req)
	return res, d
}

// reqDrainCap bounds the greedy request drain per loop iteration, so a
// firehose of submitters cannot starve the network-facing cases.
const reqDrainCap = 256

// run is the protocol loop: a single goroutine owning all state, the
// consensus instances included. It reads one input, steps the value with it
// at the clock's now and with the detector's verdicts, ends the turn
// (endTurn) and publishes it (publish); every call and the stop, every data
// and control envelope, every suspicion and every tick is a step, and a
// step enters a view whole. Consensus messages are control envelopes: they
// share the Ctl inbox with the protocol's own, and reach step in the order
// they arrived. Protocol time reaches the value as tick events on one
// timer: the loop steps a tick as it starts, which arms the value's timed
// duties and sends a joiner's first request, and re-arms the timer whenever
// the value's wake moves. Every inbox is consumed in batch mode: one
// receive hands the loop every envelope pending for the channel, and a
// request wakes it for every request already queued behind it, amortising
// the wakeup and the per-turn snapshot mirror over the whole run. No receive
// is bounded: a data flood that piled up while the loop was busy (overspent
// data from a peer, say, or everything with Window 0) is stepped in one
// turn, and calls, control envelopes and suspicions wait until it is done.
// The loop returns once the turn that stepped a stop is published.
func (e *Engine) run() {
	defer close(e.doneC)
	dataIn := e.cfg.Endpoint.InboxBatch(e.cfg.Group, transport.Data)
	ctlIn := e.cfg.Endpoint.InboxBatch(e.cfg.Group, transport.Ctl)
	fdEv, unsubscribe := e.cfg.Detector.Events()
	defer unsubscribe()
	input := func(ev event) {
		ev.now, ev.detector = e.vc.clock.Now(), e.cfg.Detector
		step(&e.vc, ev)
	}
	input(event{msg: tick{}})

	var timer obs.Timer = never{}
	var armed time.Time // the wake timer fires at; zero once it fired
	defer func() { timer.Stop() }()
	for e.vc.terminal != ErrStopped {
		if w := e.vc.wake(); !w.Equal(armed) {
			timer.Stop()
			timer, armed = never{}, w
			if !w.IsZero() {
				timer = e.vc.clock.NewTimer(w.Sub(e.vc.clock.Now()))
			}
		}
		select {
		case envs, ok := <-dataIn:
			if !ok {
				dataIn = nil
				break
			}
			input(event{data: envs})
		case envs, ok := <-ctlIn:
			if !ok {
				ctlIn = nil
				break
			}
			for i := range envs {
				input(event{from: envs[i].From, msg: envs[i].Msg})
			}
		case evs, ok := <-fdEv:
			if !ok {
				fdEv = nil
				break
			}
			for _, ev := range evs {
				input(event{msg: ev})
			}
		case req := <-e.reqC:
			// Serve whatever else already sits in reqC, so concurrent
			// single-message callers get batch amortisation without using
			// the batch APIs. The loop is reqC's only reader.
			input(event{msg: req})
			for i := 0; i < reqDrainCap && len(e.reqC) > 0; i++ {
				input(event{msg: <-e.reqC})
			}
		case <-timer.C():
			armed = time.Time{}
			input(event{msg: tick{}})
		}
		e.vc.endTurn()
		e.pub.publish(&e.vc)
	}
}
