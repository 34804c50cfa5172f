package core

import (
	"repro/internal/ident"
	"repro/internal/obsolete"
)

// DeliveryKind discriminates what Deliver returned.
type DeliveryKind uint8

const (
	// DeliverData is an application message.
	DeliverData DeliveryKind = iota + 1
	// DeliverView is a view notification: the membership changed and every
	// message delivered earlier is covered group-wide (SVS).
	DeliverView
	// DeliverExpelled tells the application this process was removed from
	// the group by the new view; no further deliveries follow.
	DeliverExpelled
)

func (k DeliveryKind) String() string {
	switch k {
	case DeliverData:
		return "data"
	case DeliverView:
		return "view"
	case DeliverExpelled:
		return "expelled"
	default:
		return "unknown"
	}
}

// Delivery is one item handed to the application by Deliver — either a
// data message or a view notification, in the exact order the protocol
// prescribes (Figure 1 models views as control messages in the delivery
// queue).
type Delivery struct {
	Kind DeliveryKind
	// View is the view the item belongs to: for data, the view it was
	// multicast in; for view notifications, the new view's identifier.
	View ident.ViewID
	// Epoch is the lineage of that view (see ident.ViewRef). Together with
	// View it names the view globally even across partition splits and
	// merges; 0 is the founding lineage.
	Epoch ident.Epoch
	// Meta and Payload are set for data deliveries.
	Meta    obsolete.Msg
	Payload []byte
	// NewView is set for view (and expelled) notifications.
	NewView View
}

// Stats exposes the engine's counters; all values are cumulative since
// Start except where noted. It is the one place the engine counts: the
// loop bumps its own copy once per event and publishes it when a turn
// ends, and a metrics registry reads the published copy (statsExport).
type Stats struct {
	// View is the identifier of the current view.
	View ident.ViewID
	// Epoch is the current view's lineage (0 until a split or merge).
	Epoch ident.Epoch
	// Members is the current membership size.
	Members int

	Multicast      uint64 // messages multicast by this process
	Delivered      uint64 // data messages delivered to the application
	ViewsInstalled uint64

	PurgedToDeliver uint64 // entries purged from the delivery queue
	PurgedOutgoing  uint64 // entries purged from outgoing (per-peer) queues
	DroppedStale    uint64 // arrivals discarded: wrong view
	DroppedCovered  uint64 // arrivals discarded: duplicate or covered (t3)

	DroppedBadType       uint64 // data-channel envelopes that were not data
	DroppedUnknownCtl    uint64 // control envelopes of no known type
	DroppedExpelled      uint64 // traffic reaching this engine after its expulsion or failed join
	DroppedUnknownSender uint64 // data or credits from a process that is not a member, or not the process whose link it arrived on
	DroppedOverspent     uint64 // data arrivals beyond the credits their sender was granted (GroupConfig.Window)
	SendErrors           uint64 // sends the endpoint refused

	CreditsStaleView   uint64 // credit grants discarded: wrong view
	CreditsExcess      uint64 // credit grants clamped: they would have lifted credits past the window
	CtlDeferredDropped uint64 // future-view control envelopes dropped past the defer cap
	JoinReqDropped     uint64 // admission requests dropped past the cap on parked ones

	JoinStatesSent  uint64 // state transfers shipped to joiners (sponsor side)
	JoinBacklogSent uint64 // backlog messages shipped in those transfers
	JoinBytesSent   uint64 // wire bytes of those transfers
	JoinBacklogRecv uint64 // backlog length of the state transfer that admitted this engine
	JoinBytesRecv   uint64 // wire bytes of that transfer

	FlushAdded   uint64 // messages adopted from decided flush sets
	LastFlushLen int    // size of the last decided flush set

	CreditFlushes uint64 // owed-credit batches granted back to senders

	MulticastParks uint64 // times a multicast had to wait (flow control, a view change or a join)
	Parked         int    // multicasts currently parked: on flow control, a view change or a join
	ToDeliverLen   int    // current delivery-queue occupancy
	ToDeliverMax   int    // high-water mark of the delivery queue

	// LastSent is the frontier of this engine's own stream: the highest
	// sequence number it committed or adopted — what an external tracker
	// must continue from after a rejoin (see obsolete.KTracker.Skip).
	LastSent ident.Seq

	StablePruned uint64 // history entries reclaimed by stability tracking
	HistoryLen   int    // current delivery-history size (flush-set bound)

	// Blocked reports the group closed for a view change or a merge.
	Blocked bool

	// Consensus decisions that arrived but could not be installed — one
	// landing after its change ended, one for a view the change in flight
	// is not waiting on. With concurrent proposals (splits, merges) these
	// are expected losers of the arbitration, not errors. DecisionFailures
	// are the errors: an outcome that did not decode, a stopped consensus
	// service.
	IgnoredNotBlocked uint64
	IgnoredWrongView  uint64
	DecisionFailures  uint64

	// Partition healing (GroupConfig.Heal).
	Merges         uint64 // union views installed by a partition merge
	MergeAborts    uint64 // merges abandoned on timeout
	MergeBytesRecv uint64 // wire bytes of merge state contributions received
}
