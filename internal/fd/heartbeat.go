package fd

import (
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/ubq"
)

// Beat is the heartbeat wire message.
type Beat struct{}

func init() {
	codec.Register[Beat](codec.TBeat,
		func(dst []byte, _ Beat) []byte { return dst },
		func(_ *codec.Reader) (Beat, error) { return Beat{}, nil })
}

// HeartbeatOptions configures the heartbeat detector.
type HeartbeatOptions struct {
	// Interval between heartbeats. Default 20ms. A peer silent for longer
	// than 5×Interval is suspected.
	Interval time.Duration
	// Obs supplies the clock, metrics and event sink. All timestamps and
	// the beat ticker come from its Clock, so a deterministic clock makes
	// suspicion timing exactly reproducible (see the fake-clock tests).
	// Nil disables metrics and events and uses the wall clock.
	Obs *obs.Obs
}

func (o *HeartbeatOptions) defaults() {
	if o.Interval <= 0 {
		o.Interval = 20 * time.Millisecond
	}
}

// timeoutBeats is how many beat intervals a peer may stay silent before it
// is suspected.
const timeoutBeats = 5

// monitor is the detector's state under one lock: whom it monitors now, when
// each was last heard, whom it suspects, and its counts since it was
// created. It is allocated apart from the Heartbeat so that the registry
// source reading it holds nothing else of the detector.
type monitor struct {
	mu       sync.Mutex
	peers    ident.PIDs
	lastSeen map[ident.PID]time.Time
	susp     map[ident.PID]bool

	beatsSent, beatsRecv, sendErrors, suspicions, revivals uint64
}

// export emits the counts, and fd_suspected{peer=p} for each peer
// currently monitored.
func (m *monitor) export(emit obs.Emit) {
	m.mu.Lock()
	defer m.mu.Unlock()
	emit("fd_beats_sent_total", obs.KindCounter, m.beatsSent)
	emit("fd_beats_recv_total", obs.KindCounter, m.beatsRecv)
	emit("fd_beat_send_errors_total", obs.KindCounter, m.sendErrors)
	emit("fd_suspicions_total", obs.KindCounter, m.suspicions)
	emit("fd_revivals_total", obs.KindCounter, m.revivals)
	for _, p := range m.peers {
		var v uint64
		if m.susp[p] {
			v = 1
		}
		emit("fd_suspected", obs.KindGauge, v, obs.L("peer", string(p)))
	}
}

// Heartbeat is a timeout-based eventually-accurate failure detector: each
// process periodically beats to its peers; a peer silent for longer than
// the timeout is suspected, and the suspicion is revised as soon as a beat
// arrives again (◇S style: finitely many mistakes once timing stabilises).
//
// Heartbeats are node-scoped, not group-scoped: they travel in
// ident.NodeGroup on the FailureDetector channel, so one detector serves
// every group the node hosts (see fd.Fanout for sharing its events). The
// detector is that inbox's only reader: Start claims it, and until then
// the endpoint drops and counts the beats peers send.
type Heartbeat struct {
	ep      transport.Endpoint
	watched func() ident.PIDs
	opts    HeartbeatOptions
	clock   obs.Clock
	beatGap *obs.Histogram // observed gap between a peer's beats
	ev      *obs.Events
	*monitor

	out  *ubq.Queue[Event]
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

var _ Detector = (*Heartbeat)(nil)

// NewHeartbeat returns a detector monitoring, through ep, whom watched
// names: it is read at Start and again at every beat, so the monitored set
// follows it one beat late. Call Start to begin beating.
func NewHeartbeat(ep transport.Endpoint, watched func() ident.PIDs, opts HeartbeatOptions) *Heartbeat {
	opts.defaults()
	ob := opts.Obs
	m := &monitor{
		lastSeen: make(map[ident.PID]time.Time),
		susp:     make(map[ident.PID]bool),
	}
	ob.AddSource(m.export)
	return &Heartbeat{
		ep:      ep,
		watched: watched,
		opts:    opts,
		clock:   ob.Clock(),
		beatGap: ob.Histogram("fd_beat_gap_seconds", obs.DurationBuckets),
		ev:      ob.Events(),
		monitor: m,
		out:     ubq.New[Event](),
		done:    make(chan struct{}),
	}
}

// Start claims the endpoint's (ident.NodeGroup, FailureDetector) inbox and
// launches the beat and monitor goroutines.
func (h *Heartbeat) Start() {
	inbox := h.ep.Inbox(ident.NodeGroup, transport.FailureDetector)
	h.follow()
	h.wg.Add(2)
	go h.beatLoop()
	go h.recvLoop(inbox)
}

// follow makes the monitored set whom watched names now and returns it: a
// newly named peer starts unsuspected with a fresh grace period, a dropped
// one is forgotten, its suspicion with it.
func (h *Heartbeat) follow() ident.PIDs {
	next := h.watched().Remove(h.ep.Self())
	now := h.clock.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range next {
		if !h.peers.Contains(p) {
			h.lastSeen[p] = now
		}
	}
	for _, p := range h.peers {
		if !next.Contains(p) {
			delete(h.lastSeen, p)
			delete(h.susp, p)
		}
	}
	h.peers = next
	return next
}

func (h *Heartbeat) beatLoop() {
	defer h.wg.Done()
	ticker := h.clock.NewTicker(h.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.done:
			return
		case <-ticker.C():
			var sent, failed uint64
			for _, p := range h.follow() {
				// Best effort: a failed send is just a missing beat, but it
				// is counted — a climbing error rate is a dead link.
				if err := h.ep.Send(p, ident.NodeGroup, transport.FailureDetector, Beat{}); err != nil {
					failed++
				} else {
					sent++
				}
			}
			h.check(h.clock.Now(), sent, failed)
		}
	}
}

func (h *Heartbeat) recvLoop(inbox <-chan transport.Envelope) {
	defer h.wg.Done()
	for {
		select {
		case <-h.done:
			return
		case env, ok := <-inbox:
			if !ok {
				return
			}
			h.alive(env.From)
		}
	}
}

func (h *Heartbeat) alive(p ident.PID) {
	now := h.clock.Now()
	h.mu.Lock()
	if !h.peers.Contains(p) {
		h.mu.Unlock()
		return
	}
	if last, ok := h.lastSeen[p]; ok {
		h.beatGap.ObserveDuration(now.Sub(last))
	}
	h.lastSeen[p] = now
	revised := h.susp[p]
	delete(h.susp, p)
	h.beatsRecv++
	if revised {
		h.revivals++
	}
	h.mu.Unlock()
	if revised {
		h.ev.Suspicion(string(p), false)
		h.out.Push(Event{P: p, Suspected: false})
	}
}

// check counts a tick's beats, sent and failed, and suspects every peer
// silent for longer than timeoutBeats intervals at now.
func (h *Heartbeat) check(now time.Time, sent, failed uint64) {
	var newly []ident.PID
	h.mu.Lock()
	h.beatsSent += sent
	h.sendErrors += failed
	for _, p := range h.peers {
		if h.susp[p] {
			continue
		}
		if now.Sub(h.lastSeen[p]) > timeoutBeats*h.opts.Interval {
			h.susp[p] = true
			h.suspicions++
			newly = append(newly, p)
		}
	}
	h.mu.Unlock()
	for _, p := range newly {
		h.ev.Suspicion(string(p), true)
		h.out.Push(Event{P: p, Suspected: true})
	}
}

// Suspected implements Detector.
func (h *Heartbeat) Suspected(p ident.PID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.susp[p]
}

// Suspects implements Detector.
func (h *Heartbeat) Suspects() ident.PIDs {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps := make([]ident.PID, 0, len(h.susp))
	for p := range h.susp {
		ps = append(ps, p)
	}
	return ident.NewPIDs(ps...)
}

// Events implements Detector.
func (h *Heartbeat) Events() <-chan Event { return h.out.Out() }

// Stop implements Detector.
func (h *Heartbeat) Stop() {
	h.once.Do(func() {
		close(h.done)
		h.wg.Wait()
		h.out.Close()
	})
}
