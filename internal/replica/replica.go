// Package replica implements the application scenario the paper designs
// SVS for (§4): primary-backup replication of a server whose state is a
// collection of data items. One replica — the primary, chosen
// deterministically from the view membership — executes client requests
// and disseminates state updates to the backups with semantically reliable
// multicast. SVS guarantees that on fail-over every surviving replica
// holds an equivalent state: backups may have skipped obsolete updates,
// never current ones.
//
// Updates are gamestate mutations framed by the batch package: single-item
// updates obsolete the item's previous update, creations/destructions are
// reliable, and composite (multi-item) requests travel as an atomic batch.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/gamestate"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// Config assembles a replica.
type Config struct {
	// Self, Endpoint and Detector configure the replica's node (see
	// core.NodeConfig: the node owns the endpoint, and a nil Detector runs
	// the node's own heartbeat); InitialView is the group's first view. The
	// replica group is the node's group 1.
	Self        ident.PID
	Endpoint    transport.Endpoint
	Detector    fd.Detector
	InitialView core.View

	// K is the k-enumeration window (default 2×ToDeliverCap, minimum 16).
	K int
	// ToDeliverCap / OutgoingCap / Window bound the protocol buffers; zero
	// values leave them unbounded (see core.GroupConfig).
	ToDeliverCap int
	OutgoingCap  int
	Window       int
	// AutoEvict evicts suspected members automatically.
	AutoEvict bool
	// Reliable disables purging (classic VS) — for baseline comparisons.
	Reliable bool
	// StabilityInterval enables reception-frontier gossip (see core).
	// Zero disables it.
	StabilityInterval time.Duration
}

// Replica is one member of the replicated server group.
type Replica struct {
	cfg  Config
	node *core.Node
	eng  *core.Group
	rel  obsolete.Relation

	sender *batch.Sender // primary-side framing (driven by Execute)

	mu       sync.Mutex
	state    *gamestate.State
	view     core.View
	expelled bool
	applied  uint64

	recv *batch.Receiver

	viewCb func(core.View)

	loopCtx    context.Context
	loopCancel context.CancelFunc
	loopDone   chan struct{}
}

// Errors returned by Replica.
var (
	ErrNotPrimary = errors.New("replica: not the primary")
	ErrExpelled   = errors.New("replica: expelled from the group")
)

// group is the replica group's identifier on its node.
const group ident.GroupID = 1

// New assembles a replica whose group is running; call Start to apply
// what it delivers.
func New(cfg Config) (*Replica, error) {
	if cfg.K <= 0 {
		cfg.K = 2 * cfg.ToDeliverCap
	}
	if cfg.K < 16 {
		cfg.K = 16
	}
	var rel obsolete.Relation = obsolete.KEnumeration{K: cfg.K}
	if cfg.Reliable {
		rel = obsolete.Empty{}
	}
	node, err := core.NewNode(core.NodeConfig{Self: cfg.Self, Endpoint: cfg.Endpoint, Detector: cfg.Detector})
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	eng, err := node.Create(group, core.GroupConfig{
		InitialView:       cfg.InitialView,
		Relation:          rel,
		ToDeliverCap:      cfg.ToDeliverCap,
		OutgoingCap:       cfg.OutgoingCap,
		Window:            cfg.Window,
		AutoEvict:         cfg.AutoEvict,
		StabilityInterval: cfg.StabilityInterval,
	})
	if err != nil {
		node.Close()
		return nil, fmt.Errorf("replica: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Replica{
		cfg:        cfg,
		node:       node,
		eng:        eng,
		rel:        rel,
		sender:     batch.NewSender(obsolete.NewKTracker(cfg.K)),
		state:      gamestate.New(),
		view:       cfg.InitialView.Clone(),
		recv:       batch.NewReceiver(),
		loopCtx:    ctx,
		loopCancel: cancel,
		loopDone:   make(chan struct{}),
	}, nil
}

// OnViewChange registers a callback invoked (from the delivery goroutine)
// whenever a new view is installed. Must be called before Start.
func (r *Replica) OnViewChange(f func(core.View)) { r.viewCb = f }

// Start launches the delivery loop.
func (r *Replica) Start() { go r.deliveryLoop() }

// Stop terminates the replica: its delivery loop ends and its node closes,
// the endpoint with it.
func (r *Replica) Stop() {
	r.loopCancel()
	r.node.Close()
	<-r.loopDone
}

// Engine exposes the underlying group engine (stats, view changes).
func (r *Replica) Engine() *core.Engine { return r.eng.Engine }

// Self returns this replica's identifier.
func (r *Replica) Self() ident.PID { return r.cfg.Self }

// Primary returns the current primary: the first member of the view in
// identifier order. Every replica derives the same answer from the same
// view, which is exactly what view synchrony is for.
func (r *Replica) Primary() ident.PID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.view.Members) == 0 {
		return ""
	}
	return r.view.Members[0]
}

// IsPrimary reports whether this replica is the primary.
func (r *Replica) IsPrimary() bool { return r.Primary() == r.cfg.Self }

// View returns the current view.
func (r *Replica) View() core.View {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view.Clone()
}

// Digest returns the deterministic digest of the replica's state.
func (r *Replica) Digest() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.Digest()
}

// Applied returns how many updates this replica has applied.
func (r *Replica) Applied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// State returns a snapshot of the replica state.
func (r *Replica) State() *gamestate.State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.Clone()
}

// Execute runs one client request on the primary: a set of state updates
// applied atomically. Only the primary may call it. Single-update requests
// go out as self-committing messages; multi-update requests as a batch
// with a commit. The primary's own state changes when the updates are
// delivered back to it, so all replicas apply the same stream.
func (r *Replica) Execute(ctx context.Context, updates ...gamestate.Update) error {
	if !r.IsPrimary() {
		return ErrNotPrimary
	}
	if len(updates) == 0 {
		return nil
	}
	msgs, err := r.frame(updates)
	if err != nil {
		return err
	}
	for _, m := range msgs {
		meta := obsolete.Msg{Sender: r.cfg.Self, Seq: m.Seq, Annot: m.Annot}
		if _, err := r.eng.Multicast(ctx, meta, m.Payload); err != nil {
			return fmt.Errorf("replica: multicast: %w", err)
		}
	}
	return nil
}

// frame converts a request into framed batch messages.
func (r *Replica) frame(updates []gamestate.Update) ([]batch.Msg, error) {
	if len(updates) == 1 {
		return r.frameOne(updates[0])
	}
	msgs := make([]batch.Msg, 0, len(updates)+1)
	if err := r.sender.Begin(); err != nil {
		return nil, err
	}
	for _, u := range updates {
		var m batch.Msg
		var err error
		switch u.Op {
		case gamestate.OpUpdate:
			m, err = r.sender.Member(u.Item, u.Marshal())
		default:
			// Creations and destructions inside a composite request are
			// batched as members too: atomicity matters more than their
			// individual reliability, and members are never purged before
			// their commit (only a later commit covering the same item
			// could, and creates/destroys never become its targets).
			m, err = r.sender.Member(u.Item, u.Marshal())
		}
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, m)
	}
	m, err := r.sender.Commit(nil)
	if err != nil {
		return nil, err
	}
	return append(msgs, m), nil
}

func (r *Replica) frameOne(u gamestate.Update) ([]batch.Msg, error) {
	var m batch.Msg
	var err error
	switch u.Op {
	case gamestate.OpCreate:
		m, err = r.sender.Create(u.Item, u.Marshal())
	case gamestate.OpDestroy:
		m, err = r.sender.Destroy(u.Item, u.Marshal())
	default:
		m, err = r.sender.Single(u.Item, u.Marshal())
	}
	if err != nil {
		return nil, err
	}
	return []batch.Msg{m}, nil
}

// RequestViewChange asks the group to install a new view without leavers
// (or excluding the given processes).
func (r *Replica) RequestViewChange(leave ...ident.PID) error {
	return r.eng.RequestViewChange(leave...)
}

// deliveryLoop applies the delivered update stream to the local state.
func (r *Replica) deliveryLoop() {
	defer close(r.loopDone)
	for {
		del, err := r.eng.Deliver(r.loopCtx)
		if err != nil {
			return
		}
		switch del.Kind {
		case core.DeliverData:
			payloads, err := r.recv.Receive(del.Meta.Sender, del.Payload)
			if err != nil {
				continue // tolerate malformed frames from buggy peers
			}
			r.mu.Lock()
			for _, p := range payloads {
				u, err := gamestate.ParseUpdate(p)
				if err != nil {
					continue
				}
				r.state.Apply(u)
				r.applied++
			}
			r.mu.Unlock()
		case core.DeliverView:
			r.mu.Lock()
			r.view = del.NewView.Clone()
			r.mu.Unlock()
			if r.viewCb != nil {
				r.viewCb(del.NewView)
			}
		case core.DeliverExpelled:
			r.mu.Lock()
			r.expelled = true
			r.view = del.NewView.Clone()
			r.mu.Unlock()
			if r.viewCb != nil {
				r.viewCb(del.NewView)
			}
			return
		}
	}
}

// Expelled reports whether the group removed this replica.
func (r *Replica) Expelled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.expelled
}
