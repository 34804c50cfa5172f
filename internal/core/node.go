package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Node is the multi-group runtime: it hosts any number of independent SVS
// group instances on one shared transport endpoint. The paper's motivating
// workload (§5) is naturally many small groups — rooms, regions, topics —
// and a Node is what lets one OS process serve them all instead of one
// process per group.
//
// The Node owns the pieces that are per-node, not per-group:
//
//   - the transport endpoint, whose (GroupID, Channel) inboxes demultiplex
//     one connection pair per peer across every shared group;
//   - a single failure detector (by default a heartbeat detector beating
//     once per peer in ident.NodeGroup, no matter how many groups share
//     that peer), to whose suspicions every hosted group's engine
//     subscribes.
//
// Everything else stays per-group and fully isolated: each group runs its
// own Engine (protocol loop, delivery queue, flow-control windows,
// per-peer outgoing queues, and the consensus instances of its view
// changes), keyed by group on the wire. A blocked or slow group therefore
// never delays another group's data or control plane — the §5.3
// buffer-separation rule lifted to group granularity.
type Node struct {
	cfg NodeConfig
	obs *obs.Obs      // node-labelled bundle; groups derive from it
	hb  *fd.Heartbeat // non-nil when the node owns its detector
	det fd.Detector

	mu     sync.Mutex
	groups map[ident.GroupID]*Group
	closed bool
}

// NodeConfig assembles a Node.
type NodeConfig struct {
	// Self is this process's identifier; it must equal Endpoint.Self().
	Self ident.PID
	// Endpoint is the shared transport attachment. The Node owns it:
	// Close closes it.
	Endpoint transport.Endpoint
	// Detector optionally supplies the shared failure detector (already
	// started). When nil the Node runs its own fd.Heartbeat over the
	// endpoint, which monitors, beat by beat, the union of whom the hosted
	// groups need watched (Node.watched), and stops it on Close.
	Detector fd.Detector
	// Heartbeat tunes the node-owned heartbeat detector (ignored when
	// Detector is set).
	Heartbeat fd.HeartbeatOptions
	// Obs supplies the clock, metrics registry and structured-event sink
	// shared by everything the node runs: the heartbeat detector records
	// under it directly, and every hosted group's engine gets a derived
	// bundle labelled with the group id (so one registry snapshot separates
	// the groups). Nil means the wall clock with no instrumentation.
	Obs *obs.Obs
}

// Group is one hosted group: the Engine facade (Multicast, Deliver,
// RequestViewChange, View, Stats) plus the node-side lifecycle.
type Group struct {
	*Engine

	node *Node
	id   ident.GroupID
}

// ID returns the group's identifier.
func (g *Group) ID() ident.GroupID { return g.id }

// NewNode returns a running node hosting no groups yet.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("core: node config: Self is required")
	}
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("core: node config: Endpoint is required")
	}
	if cfg.Endpoint.Self() != cfg.Self {
		return nil, fmt.Errorf("core: node config: Endpoint.Self() %q != Self %q", cfg.Endpoint.Self(), cfg.Self)
	}
	n := &Node{
		cfg:    cfg,
		obs:    cfg.Obs,
		det:    cfg.Detector,
		groups: make(map[ident.GroupID]*Group),
	}
	// Endpoints that export their counters and histograms through an obs
	// registry (both in-tree transports) are attached to the node's bundle
	// here, and only here; transports without the hook are left alone.
	if in, ok := cfg.Endpoint.(interface{ Instrument(*obs.Obs) }); ok {
		in.Instrument(n.obs)
	}
	if n.det == nil {
		hbo := cfg.Heartbeat
		if hbo.Obs == nil {
			hbo.Obs = n.obs
		}
		n.hb = fd.NewHeartbeat(cfg.Endpoint, n.watched, hbo)
		n.hb.Start()
		n.det = n.hb
	}
	return n, nil
}

// Self returns this node's process identifier.
func (n *Node) Self() ident.PID { return n.cfg.Self }

// Detector returns the shared failure detector.
func (n *Node) Detector() fd.Detector { return n.det }

// Metrics snapshots every instrument the node and its groups have
// recorded. With no registry attached the snapshot is empty, never nil.
func (n *Node) Metrics() obs.Snapshot {
	return n.obs.Registry().Snapshot()
}

// Groups returns the identifiers of the hosted groups, sorted.
func (n *Node) Groups() []ident.GroupID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]ident.GroupID, 0, len(n.groups))
	for g := range n.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Group returns the hosted group g, if any.
func (n *Node) Group(g ident.GroupID) (*Group, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	grp, ok := n.groups[g]
	return grp, ok
}

// watched is whom the node-owned heartbeat monitors: the union of what the
// hosted groups published they need watched at the end of their last turn
// (viewState.watching). A peer no group lists any more — evicted from its
// last shared group, or the dead contact of a join that gave up — stops
// being beaten and re-dialed at the next beat.
func (n *Node) watched() ident.PIDs {
	n.mu.Lock()
	defer n.mu.Unlock()
	var union ident.PIDs
	for _, g := range n.groups {
		g.pub.mu.Lock()
		union = union.Union(g.pub.watched)
		g.pub.mu.Unlock()
	}
	return union
}

// host implements Create and Join: it starts a group-scoped engine on the
// node's shared endpoint and detector; join selects the engine's bootstrap
// mode. It holds n.mu throughout, so a group is hosted or not at one
// instant, and a start that fails leaves nothing behind: start registers
// the group's inboxes only once the config is valid.
func (n *Node) host(id ident.GroupID, gc GroupConfig, join *JoinSpec) (*Group, error) {
	if id == ident.NodeGroup {
		return nil, fmt.Errorf("core: group id %d is reserved for node-scoped traffic", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("core: node closed")
	}
	if _, dup := n.groups[id]; dup {
		return nil, fmt.Errorf("core: group %d already hosted", id)
	}
	eng, err := start(config{
		Self:        n.cfg.Self,
		Group:       id,
		Endpoint:    n.cfg.Endpoint,
		Detector:    n.det,
		Join:        join,
		Obs:         n.obs.With(obs.L("group", fmt.Sprint(id))),
		GroupConfig: gc,
	})
	if err != nil {
		return nil, err
	}
	grp := &Group{Engine: eng, node: n, id: id}
	n.groups[id] = grp
	return grp, nil
}

// Join hosts group id by joining it while it runs: instead of agreeing an
// initial view with the other members (Create), the node asks the contact
// members for admission and installs its first view — membership,
// reception frontiers, and the relation-purged unstable backlog — from
// the state transfer that follows the admitting view change. The group
// behaves like any other hosted group from then on. gc.InitialView is
// ignored.
func (n *Node) Join(id ident.GroupID, gc GroupConfig, contacts ...ident.PID) (*Group, error) {
	return n.host(id, gc, &JoinSpec{Contacts: ident.NewPIDs(contacts...)})
}

// JoinWith is Join with an explicit JoinSpec, for callers that set a
// give-up budget (JoinSpec.GiveUp) instead of retrying dead contacts
// forever.
func (n *Node) JoinWith(id ident.GroupID, gc GroupConfig, spec JoinSpec) (*Group, error) {
	return n.host(id, gc, &spec)
}

// Create joins this node to group id as a founding member: it registers
// the group's transport inboxes and starts a group-scoped engine, which
// subscribes to the shared failure detector. Every founding member must
// Create the group with the same id and InitialView.
func (n *Node) Create(id ident.GroupID, gc GroupConfig) (*Group, error) {
	return n.host(id, gc, nil)
}

// Add asks the group to admit the given processes, which must be joining
// it (Node.Join or JoinWith). It returns once the view
// change is initiated; the joiners appear in the next installed view and
// receive their state transfer from the sponsor.
func (g *Group) Add(ps ...ident.PID) error {
	return g.Engine.RequestMembershipChange(ident.NewPIDs(ps...), nil)
}

// Leave detaches the group from its node: the engine stops, which ends its
// detector subscription, the transport inboxes are deregistered (stray
// traffic for the group is dropped and counted from then on), and from the
// next beat peers no group shares anymore stop being monitored. Leave is
// idempotent.
func (g *Group) Leave() {
	n := g.node
	n.mu.Lock()
	if n.groups[g.id] != g {
		n.mu.Unlock()
		return // already left (or superseded)
	}
	delete(n.groups, g.id)
	n.mu.Unlock()

	g.stop()
	n.cfg.Endpoint.Deregister(g.id)
}

// Close shuts the node down: every hosted group leaves, the node-owned
// heartbeat (if any) stops, and the shared endpoint closes. Close is
// idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	groups := make([]*Group, 0, len(n.groups))
	for _, g := range n.groups {
		groups = append(groups, g)
	}
	n.mu.Unlock()

	for _, g := range groups {
		g.Leave()
	}
	if n.hb != nil {
		n.hb.Stop()
	}
	return n.cfg.Endpoint.Close()
}
