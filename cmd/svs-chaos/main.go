// Command svs-chaos is one node of the black-box chaos harness
// (test/chaosharness): a real SVS node — TCP transport wrapped in the
// fault-injecting transport.Faults controller, heartbeat failure
// detection, any number of hosted groups — driven over a small HTTP
// control API and logging every observable event (multicast, delivery,
// view install, expulsion) as one JSON line per event.
//
// The harness builds this binary, spawns N of them, connects them into
// groups, feeds them a seeded action stream (multicast, join, leave,
// kill, restart, partition, heal, flow-block), and afterwards replays
// the JSONL logs through the internal/check oracle to verify the §3.2
// safety properties black-box, across process boundaries.
//
// It prints exactly one line to stdout once it is reachable:
//
//	READY self=<pid> addr=<tcp addr> ctl=http://<control addr>
//
// Control API (JSON over HTTP):
//
//	POST /peers     {"peers":{"pid":"host:port",...}}    introduce peers
//	POST /create    {"group":1,"members":["n0","n1"]}    found a group
//	POST /join      {"group":1,"contacts":["n0"]}        join a running group
//	POST /leave     {"group":1}                          leave gracefully
//	POST /viewchange {"group":1}                         no-op view change (flush barrier)
//	POST /multicast {"group":1,"count":10}               enqueue multicasts
//	POST /block     {"group":1,"blocked":true}           pause the delivery pump
//	POST /fault     {"op":"cut","peers":["n1"]}          outbound link faults
//	GET  /stats?group=1                                  group status snapshot
//	GET  /metrics                                        obs registry snapshot
//	POST /quit                                           graceful shutdown
package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"

	gonet "net"
)

func main() {
	var (
		self    = flag.String("self", "", "process identifier (required)")
		listen  = flag.String("listen", "127.0.0.1:0", "transport listen address")
		ctl     = flag.String("ctl", "127.0.0.1:0", "control API listen address")
		logPath = flag.String("log", "", "JSONL event log path (required)")
		k       = flag.Int("k", 16, "k-enumeration window (messages obsolete their predecessor chain)")
		buffer  = flag.Int("buffer", 8, "delivery/outgoing buffer size and flow-control window")
		seed    = flag.Int64("seed", 1, "fault-injection rng seed")
		hb      = flag.Duration("hb", 50*time.Millisecond, "heartbeat interval (timeout is 5x)")
		events  = flag.Bool("events", false, "log structured protocol events to stderr")
		heal    = flag.Bool("heal", false, "enable partition healing (probe former members every 500ms, merge diverged views)")
	)
	flag.Parse()
	if *self == "" || *logPath == "" {
		fmt.Fprintln(os.Stderr, "svs-chaos: -self and -log are required")
		os.Exit(2)
	}
	if err := run(ident.PID(*self), *listen, *ctl, *logPath, *k, *buffer, *seed, *hb, *events, *heal); err != nil {
		fmt.Fprintf(os.Stderr, "svs-chaos: %v\n", err)
		os.Exit(1)
	}
}

func run(self ident.PID, listen, ctl, logPath string, k, buffer int, seed int64, hb time.Duration, events, heal bool) error {
	logF, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logF.Close()

	tcp, err := transport.NewTCPNetwork(self, listen, nil)
	if err != nil {
		return err
	}
	faults := transport.NewFaults(seed)
	ep := faults.Wrap(tcp)

	var logger *slog.Logger
	if events {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil)).With(slog.String("node", string(self)))
	}
	reg := obs.NewRegistry()
	ob := obs.New(nil, reg, logger)
	faults.Instrument(ob)
	node, err := core.NewNode(core.NodeConfig{
		Self:      self,
		Endpoint:  ep,
		Heartbeat: fd.HeartbeatOptions{Interval: hb},
		Obs:       ob,
	})
	if err != nil {
		return err
	}

	s := &server{
		self:   self,
		node:   node,
		tcp:    tcp,
		faults: faults,
		logF:   logF,
		k:      k,
		buffer: buffer,
		heal:   heal,
		reg:    reg,
		groups: make(map[ident.GroupID]*grp),
		quitC:  make(chan struct{}),
	}

	ln, err := gonet.Listen("tcp", ctl)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.mux()}
	go srv.Serve(ln)

	fmt.Printf("READY self=%s addr=%s ctl=http://%s\n", self, tcp.Addr(), ln.Addr())
	os.Stdout.Sync()

	<-s.quitC
	s.mu.Lock()
	for _, x := range s.groups {
		x.stop()
	}
	s.mu.Unlock()
	node.Close()
	srv.Close()
	return nil
}

// server is the HTTP-controlled node runtime.
type server struct {
	self   ident.PID
	node   *core.Node
	tcp    *transport.TCPNetwork
	faults *transport.Faults
	k      int
	buffer int
	heal   bool
	reg    *obs.Registry

	logMu sync.Mutex
	logF  *os.File

	mu       sync.Mutex
	groups   map[ident.GroupID]*grp
	quitOnce sync.Once
	quitC    chan struct{}
}

// event is one JSONL log line; which fields are set depends on Ev.
type event struct {
	Ev      string   `json:"ev"` // mcast | deliver | install | expelled
	P       string   `json:"p"`
	G       uint32   `json:"g"`
	View    uint64   `json:"view"`
	Epoch   uint64   `json:"epoch,omitempty"` // lineage epoch (0 = founding lineage)
	Sender  string   `json:"sender,omitempty"`
	Seq     uint64   `json:"seq,omitempty"`
	Annot   string   `json:"annot,omitempty"` // base64
	Members []string `json:"members,omitempty"`
}

// log writes one event line, unbuffered: a SIGKILL loses at most the
// line being written, never reorders (the oracle tolerates a truncated
// final line).
func (s *server) log(e event) {
	e.P = string(s.self)
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.logF.Write(append(b, '\n'))
	s.logMu.Unlock()
}

func (s *server) gc() core.GroupConfig {
	return core.GroupConfig{
		Relation:          obsolete.KEnumeration{K: s.k},
		ToDeliverCap:      s.buffer,
		OutgoingCap:       s.buffer,
		Window:            s.buffer,
		AutoEvict:         true,
		StabilityInterval: 100 * time.Millisecond,
		Heal:              s.heal,
	}
}

func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	m.HandleFunc("/peers", jsonH(s.peers))
	m.HandleFunc("/create", jsonH(s.create))
	m.HandleFunc("/join", jsonH(s.join))
	m.HandleFunc("/leave", jsonH(s.leave))
	m.HandleFunc("/viewchange", jsonH(s.viewchange))
	m.HandleFunc("/multicast", jsonH(s.multicast))
	m.HandleFunc("/block", jsonH(s.block))
	m.HandleFunc("/fault", jsonH(s.fault))
	m.HandleFunc("/stats", s.stats)
	m.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.reg.Snapshot())
	})
	m.HandleFunc("/quit", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "bye")
		s.quitOnce.Do(func() { close(s.quitC) })
	})
	return m
}

// jsonH adapts a typed request handler: decode body, run, report error.
func jsonH[T any](h func(T) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req T
		if r.Body != nil {
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err.Error() != "EOF" {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		if err := h(req); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprintln(w, "ok")
	}
}

type peersReq struct {
	Peers map[string]string `json:"peers"`
}

func (s *server) peers(r peersReq) error {
	for p, addr := range r.Peers {
		if ident.PID(p) != s.self {
			s.tcp.AddPeer(ident.PID(p), addr)
		}
	}
	return nil
}

type groupReq struct {
	Group    uint32   `json:"group"`
	Members  []string `json:"members,omitempty"`
	Contacts []string `json:"contacts,omitempty"`
	Count    int      `json:"count,omitempty"`
	Blocked  bool     `json:"blocked,omitempty"`
}

func pidsOf(ss []string) ident.PIDs {
	ps := make([]ident.PID, len(ss))
	for i, s := range ss {
		ps[i] = ident.PID(s)
	}
	return ident.NewPIDs(ps...)
}

func (s *server) create(r groupReq) error {
	gc := s.gc()
	gc.InitialView = core.View{ID: 1, Members: pidsOf(r.Members)}
	g, err := s.node.Create(ident.GroupID(r.Group), gc)
	if err != nil {
		return err
	}
	// Founders install the initial view by fiat, not through a view
	// change, so no DeliverView event will ever record it — log it here.
	// The oracle needs it to tell founders (constrained by SVS across
	// the 1→2 view change) from joiners (who never held view 1).
	s.log(event{Ev: "install", P: string(s.self), G: r.Group,
		View: uint64(gc.InitialView.ID), Members: r.Members})
	s.adopt(ident.GroupID(r.Group), g)
	return nil
}

func (s *server) join(r groupReq) error {
	g, err := s.node.Join(ident.GroupID(r.Group), s.gc(), pidsOf(r.Contacts)...)
	if err != nil {
		return err
	}
	s.adopt(ident.GroupID(r.Group), g)
	return nil
}

func (s *server) adopt(id ident.GroupID, g *core.Group) {
	ctx, cancel := context.WithCancel(context.Background())
	x := &grp{
		s: s, id: id, g: g, cancel: cancel,
		tracker: obsolete.NewKTracker(s.k),
		wake:    make(chan struct{}, 1),
	}
	s.mu.Lock()
	s.groups[id] = x
	s.mu.Unlock()
	go x.pump(ctx)
	go x.work(ctx)
}

func (s *server) grp(id uint32) (*grp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	x, ok := s.groups[ident.GroupID(id)]
	if !ok {
		return nil, fmt.Errorf("group %d not hosted", id)
	}
	return x, nil
}

// leave departs gracefully: the node asks the group to remove it (a
// normal view change, so survivors flush and re-arm their windows
// instead of waiting for the failure detector), waits for its expelled
// notification, then detaches. Detaching without the view change would
// leave the survivors' flow-control credits pointed at a ghost.
func (s *server) leave(r groupReq) error {
	x, err := s.grp(r.Group)
	if err != nil {
		return err
	}
	x.mu.Lock()
	x.blocked = false // the pump must run to see the expulsion
	x.mu.Unlock()
	if err := x.g.RequestViewChange(s.self); err != nil {
		s.detach(x)
		return nil
	}
	go func() {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			x.mu.Lock()
			done := x.expelled
			x.mu.Unlock()
			if done {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		s.detach(x)
	}()
	return nil
}

func (s *server) detach(x *grp) {
	s.mu.Lock()
	if s.groups[x.id] == x {
		delete(s.groups, x.id)
	}
	s.mu.Unlock()
	x.stop()
}

// viewchange triggers a no-op membership view change: the flush protocol
// reconciles delivery gaps and re-arms every window, which is the final
// barrier the harness runs after the last fault.
func (s *server) viewchange(r groupReq) error {
	x, err := s.grp(r.Group)
	if err != nil {
		return err
	}
	return x.g.RequestViewChange()
}

func (s *server) multicast(r groupReq) error {
	x, err := s.grp(r.Group)
	if err != nil {
		return err
	}
	x.mu.Lock()
	x.queued += r.Count
	x.mu.Unlock()
	select {
	case x.wake <- struct{}{}:
	default:
	}
	return nil
}

func (s *server) block(r groupReq) error {
	x, err := s.grp(r.Group)
	if err != nil {
		return err
	}
	x.mu.Lock()
	x.blocked = r.Blocked
	x.mu.Unlock()
	return nil
}

type faultReq struct {
	Op    string   `json:"op"` // cut | heal | delay | drop | dup
	Peers []string `json:"peers,omitempty"`
	Ms    int      `json:"ms,omitempty"`
	P     float64  `json:"p,omitempty"`
}

// fault applies outbound link rules from this node; symmetric faults are
// the harness's job (it calls both sides).
func (s *server) fault(r faultReq) error {
	peers := pidsOf(r.Peers)
	switch r.Op {
	case "cut":
		s.faults.PartitionOneWay([]ident.PID{s.self}, peers)
	case "heal":
		s.faults.Heal()
	case "delay":
		for _, p := range peers {
			s.faults.Delay(s.self, p, time.Duration(r.Ms)*time.Millisecond)
		}
	case "drop":
		for _, p := range peers {
			s.faults.Drop(s.self, p, r.P)
		}
	case "dup":
		for _, p := range peers {
			s.faults.Duplicate(s.self, p, r.P)
		}
	default:
		return fmt.Errorf("unknown fault op %q", r.Op)
	}
	return nil
}

// statsResp is the harness-facing status snapshot of one group.
type statsResp struct {
	View      uint64   `json:"view"`
	Epoch     uint64   `json:"epoch"`
	Members   []string `json:"members"`
	Joining   bool     `json:"joining"`
	Expelled  bool     `json:"expelled"`
	Blocked   bool     `json:"blocked"`
	Queued    int      `json:"queued"`
	Sent      uint64   `json:"sent"`
	McastErrs uint64   `json:"mcast_errs"`
	Parked    int      `json:"parked"`
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	var id uint32
	fmt.Sscanf(r.URL.Query().Get("group"), "%d", &id)
	x, err := s.grp(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	v := x.g.View()
	st := x.g.Stats()
	x.mu.Lock()
	resp := statsResp{
		View:      uint64(v.ID),
		Epoch:     uint64(v.Epoch),
		Joining:   v.ID == 0,
		Expelled:  x.expelled,
		Blocked:   x.blocked,
		Queued:    x.queued,
		Sent:      x.sent,
		McastErrs: x.mcastErrs,
		Parked:    st.Parked,
	}
	x.mu.Unlock()
	for _, m := range v.Members {
		resp.Members = append(resp.Members, string(m))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// grp is one hosted group's driver state: a delivery pump that logs
// every delivery and install, and a multicast worker draining a queue of
// requested multicasts through a k-enumeration tracker (each message
// obsoletes its direct predecessor, so the annotation chain makes every
// later message cover all earlier ones transitively).
type grp struct {
	s      *server
	id     ident.GroupID
	g      *core.Group
	cancel context.CancelFunc
	wake   chan struct{}

	mu        sync.Mutex
	tracker   *obsolete.KTracker
	queued    int
	sent      uint64
	mcastErrs uint64
	blocked   bool
	expelled  bool
}

func (x *grp) stop() {
	x.cancel()
	x.g.Leave()
}

func (x *grp) pump(ctx context.Context) {
	for {
		x.mu.Lock()
		blocked := x.blocked
		x.mu.Unlock()
		if blocked {
			// The pull-style Deliver means not calling it IS flow
			// control: messages pile up in the protocol's buffers, where
			// they stay purgeable.
			select {
			case <-time.After(2 * time.Millisecond):
				continue
			case <-ctx.Done():
				return
			}
		}
		d, err := x.g.Deliver(ctx)
		if err != nil {
			return
		}
		switch d.Kind {
		case core.DeliverData:
			x.s.log(event{
				Ev: "deliver", G: uint32(x.id), View: uint64(d.View), Epoch: uint64(d.Epoch),
				Sender: string(d.Meta.Sender), Seq: uint64(d.Meta.Seq),
				Annot: base64.StdEncoding.EncodeToString(d.Meta.Annot),
			})
		case core.DeliverView:
			ev := event{Ev: "install", G: uint32(x.id), View: uint64(d.NewView.ID), Epoch: uint64(d.NewView.Epoch)}
			for _, m := range d.NewView.Members {
				ev.Members = append(ev.Members, string(m))
			}
			x.s.log(ev)
		case core.DeliverExpelled:
			x.s.log(event{Ev: "expelled", G: uint32(x.id), View: uint64(d.NewView.ID), Epoch: uint64(d.NewView.Epoch)})
			x.mu.Lock()
			x.expelled = true
			x.mu.Unlock()
			return
		}
	}
}

func (x *grp) work(ctx context.Context) {
	payload := []byte("chaos-payload-0123456789abcdef")
	errStreak := 0
	for {
		x.mu.Lock()
		n := x.queued
		x.mu.Unlock()
		if n == 0 {
			select {
			case <-x.wake:
				continue
			case <-ctx.Done():
				return
			}
		}
		x.mu.Lock()
		seq, annot := x.tracker.Next(x.tracker.Seq())
		x.mu.Unlock()
		meta := obsolete.Msg{Sender: x.s.self, Seq: seq, Annot: annot}
		view, err := x.g.Multicast(ctx, meta, payload)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// Transient rejection (e.g. a view change raced the send, or
			// the sequence diverged): resync the tracker from the
			// engine's committed frontier and retry the queued item.
			// Nothing is logged for the failed attempt, so the oracle
			// never sees a multicast that did not happen.
			x.mu.Lock()
			x.mcastErrs++
			if x.expelled {
				x.queued = 0
				x.mu.Unlock()
				return
			}
			x.tracker = obsolete.NewKTracker(x.s.k)
			x.tracker.Skip(x.g.Stats().LastSent)
			x.mu.Unlock()
			errStreak++
			if errStreak >= 100 {
				// Permanently failing group (left, stopped): drop the
				// queue so /stats does not report a stuck sender forever.
				x.mu.Lock()
				x.queued = 0
				x.mu.Unlock()
				return
			}
			select {
			case <-time.After(10 * time.Millisecond):
			case <-ctx.Done():
				return
			}
			continue
		}
		errStreak = 0
		// Logged after the engine committed it: a crash in between makes
		// the oracle synthesize the record from the deliveries (the kill
		// window is the only place a delivered message can lack one).
		x.s.log(event{
			Ev: "mcast", G: uint32(x.id), View: uint64(view.ID), Epoch: uint64(view.Epoch),
			Sender: string(x.s.self), Seq: uint64(seq),
			Annot: base64.StdEncoding.EncodeToString(annot),
		})
		x.mu.Lock()
		x.sent++
		x.queued--
		x.mu.Unlock()
	}
}
