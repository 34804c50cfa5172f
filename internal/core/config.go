package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// config assembles an Engine: what its Node supplies and the group's own
// GroupConfig.
type config struct {
	// Self is this process's identifier; it must be a member of
	// InitialView.
	Self ident.PID
	// Group identifies the SVS group this engine is a member of. All of
	// the engine's traffic travels in this group's transport inboxes, so
	// many engines share one Endpoint.
	Group ident.GroupID
	// Endpoint connects the process to its peers; it is shared with the
	// node's other groups and its failure detector.
	Endpoint transport.Endpoint
	// Detector is the failure detector oracle. The engine subscribes to
	// its Events as its loop starts and cancels the subscription as the
	// loop ends.
	Detector fd.Detector
	// Join, when non-nil, starts the engine as a joiner of an already
	// running group instead of a founding member: the engine asks the
	// contacts for admission and installs its first view — membership,
	// reception frontiers and the non-obsolete backlog — from the state
	// transfer that follows the admitting view change.
	Join *JoinSpec
	// Obs supplies the engine's clock, metrics and structured events. Every
	// timestamp and the loop's one wake timer come from its Clock, so tests
	// can drive the protocol under a deterministic obs.Fake. Nil means the
	// wall clock with no metrics and no events.
	Obs *obs.Obs

	GroupConfig
}

// GroupConfig is the group's own part of its configuration: everything but
// what the Node supplies to the groups it hosts (its Self, Endpoint and
// detector, the group's id, an Obs derived from NodeConfig.Obs with the
// group's label, and the JoinSpec of Node.Join / JoinWith).
type GroupConfig struct {
	// InitialView is the agreed first view (same at every member). It is
	// ignored by Node.Join and JoinWith: a joiner learns its first view from
	// the group's state transfer.
	InitialView View
	// Relation is the obsolescence relation; nil means the empty relation,
	// i.e. classic View Synchrony.
	Relation obsolete.Relation

	// ToDeliverCap bounds the delivery queue (Figure 1's to-deliver).
	// 0 means unbounded. A full queue exerts flow control on senders
	// through the credits it withholds: an arrival that does not fit waits
	// in the receiver until it does, as far as its sender's credits allow.
	ToDeliverCap int
	// OutgoingCap bounds each per-peer outgoing queue used when the peer
	// is out of window credits. 0 means unbounded.
	OutgoingCap int
	// Window is the per-sender flow-control window (credits) a receiver
	// grants, and enforces: an arrival beyond the credits granted its
	// sender is dropped and counted (Stats.DroppedOverspent). 0 disables
	// credit flow control entirely, a mode for trusted peers only: sends
	// go straight to the network, nothing bounds what a sender makes a
	// receiver keep, and arrivals that do not fit the delivery queue wait
	// in the receiver without a bound.
	Window int

	// AutoEvict makes the engine initiate a view change excluding any
	// process the failure detector suspects. Applications that prefer to
	// decide themselves (the paper argues eviction should be a last
	// resort) leave it false and call RequestViewChange explicitly.
	AutoEvict bool

	// StabilityInterval enables reception-frontier gossip at the given
	// period: messages known received by every member are pruned from the
	// delivery history and excluded from view-change flush sets (see
	// stability.go). Zero disables stability tracking.
	StabilityInterval time.Duration

	// Heal enables partition healing (see merge.go): a blocked view change
	// that cannot reach a majority continues as a minority sub-view under a
	// fresh lineage epoch instead of wedging, and sub-views that later hear
	// each other's probes merge back into a union view with a bidirectional
	// semantic state exchange. A healing member probes every process it once
	// shared a view with but no longer does every 500ms, while it is
	// unblocked, and aborts a merge that has not decided after 10s (the
	// partition re-opened mid-handshake) to retry it on a later probe. False
	// disables healing: minorities block and evicted processes stay out, the
	// pre-healing behaviour.
	Heal bool
}

// JoinSpec configures a joining group (Node.JoinWith).
type JoinSpec struct {
	// Contacts are members of the running group to ask for admission. At
	// least one is required; all of them are asked (concurrent admission
	// requests are reconciled by the view-change consensus like any other
	// concurrent initiators). The request is retransmitted — it covers a
	// contact or sponsor crashing mid-handshake — with retransmission n
	// waiting min(200ms·2ⁿ, 3.2s) scaled by a jitter factor in [0.8, 1.2],
	// so a herd of joiners hitting a recovering group spreads out instead
	// of hammering it in lockstep.
	Contacts ident.PIDs
	// GiveUp abandons the join once this much time has passed without a
	// state transfer: every parked and future call on the engine fails with
	// ErrJoinTimeout. It turns "all my contacts are dead" into a clean,
	// observable error instead of an eternal retry. 0 retries forever.
	GiveUp time.Duration
}

// Errors returned by the engine facade.
var (
	ErrStopped     = errors.New("core: engine stopped")
	ErrExpelled    = errors.New("core: process expelled from the group")
	ErrNotMember   = errors.New("core: process not in current view")
	ErrBadSeq      = errors.New("core: multicast sequence number not contiguous")
	ErrJoining     = errors.New("core: join in progress")
	ErrJoinTimeout = errors.New("core: join abandoned: no contact answered within the retry budget")
)

// validate checks the group's part of c and fills its defaults. Self and
// Endpoint are the node's and checked by NewNode; the node always supplies
// the detector.
func (c *config) validate() error {
	if c.Join != nil {
		js := *c.Join
		js.Contacts = js.Contacts.Remove(c.Self)
		if len(js.Contacts) == 0 {
			return fmt.Errorf("core: config: Join needs at least one contact other than Self")
		}
		c.Join = &js
	} else {
		if len(c.InitialView.Members) == 0 {
			return fmt.Errorf("core: config: InitialView must have members")
		}
		if !c.InitialView.Includes(c.Self) {
			return fmt.Errorf("core: config: Self %q not in InitialView %v", c.Self, c.InitialView.Members)
		}
	}
	if c.ToDeliverCap < 0 || c.OutgoingCap < 0 || c.Window < 0 {
		return fmt.Errorf("core: config: negative capacity")
	}
	if c.Relation == nil {
		c.Relation = obsolete.Empty{}
	}
	return nil
}
