// Package transport provides the point-to-point message passing channels of
// the paper's system model (§3.1): processes are fully connected by
// reliable, FIFO-ordered channels with no bound on transmission time.
//
// Two implementations are provided: MemNetwork, an in-process network that
// is exactly that model (plus crash-stop), and TCPNetwork, a TCP network
// for running groups across real processes using the hand-rolled binary
// codec of internal/codec with per-peer frame batching. Every inbox is an
// unbounded internal/ubq queue, so no transport exerts backpressure.
//
// Link faults — partitions, drops, delays, duplication, crashes — are
// injected over either implementation by wrapping endpoints in a Faults
// controller; it is the only fault layer.
//
// Endpoints are shared by every group a node hosts: messages are
// multiplexed onto (GroupID, Channel) inboxes. A group has two channels,
// Data and Ctl — its protocol's control traffic and its consensus rounds
// share Ctl, in arrival order — and the node has one more, the
// FailureDetector channel of ident.NodeGroup. One TCP connection pair per
// peer therefore serves all the groups two nodes share. A slow application
// in one group never starves another group's data or control plane — the
// buffer separation the paper prescribes ("the protocol must always reserve
// separate buffer space for control information", §5.3), lifted to group
// granularity.
//
// An endpoint holds only the inboxes a reader claims: a group's engine
// claims its Data and Ctl (Register), the heartbeat detector the node's
// FailureDetector channel, and a consensus.Service the Ctl channel of its
// group. An envelope for a pair nobody claimed is dropped and counted, so
// a peer cannot fill an inbox that no code reads.
package transport

import (
	"errors"

	"repro/internal/ident"
)

// Channel identifies a logical multiplexing channel of one group on an
// endpoint.
type Channel uint8

const (
	// Data carries application multicast traffic (DATA messages). It is
	// the only channel subject to protocol-level flow control.
	Data Channel = iota + 1
	// Ctl carries a group's control traffic: INIT, PRED, VIEW
	// dissemination, stability gossip, flow-control credits and the
	// consensus module's rounds.
	Ctl
	// FailureDetector carries heartbeats. Heartbeats are node-scoped: they
	// always travel in ident.NodeGroup, regardless of how many groups the
	// node hosts.
	FailureDetector

	numChannels = FailureDetector
)

// validChannel reports whether ch is one of the defined channels.
func validChannel(ch Channel) bool {
	return ch >= Data && ch <= numChannels
}

// groupChan keys one inbox: a (group, channel) pair.
type groupChan struct {
	g  ident.GroupID
	ch Channel
}

// Envelope is a received message together with its origin and the group
// it belongs to.
type Envelope struct {
	From  ident.PID
	Group ident.GroupID
	Msg   any
}

// DropStats counts envelopes an endpoint discarded at deposit time
// instead of delivering, because no reader had claimed their (group,
// channel) inbox. UnknownGroup means the group has no inbox here at all —
// a group this node does not host (or no longer hosts); UnknownChannel
// means the group has inboxes but not this one — a channel nobody reads,
// or one outside the defined range.
type DropStats struct {
	DroppedUnknownGroup   uint64
	DroppedUnknownChannel uint64
}

// ErrClosed is returned by Send on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknownPeer is returned by Send when the destination is not part of
// the network.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// Endpoint is one process's attachment to the network, shared by every
// group the process participates in.
//
// Send enqueues m for delivery to the destination's inbox for (g, ch); it
// never blocks on the receiver (channels are reliable and unbounded —
// bounded buffering and flow control live above, in the protocol, where
// the paper places them). Implementations guarantee per-sender FIFO order
// within each (group, channel) provided the sender calls Send from one
// goroutine, which the protocol engine does.
//
// Inbox returns the receive channel for (g, ch), creating the inbox if
// needed: calling it is how a reader claims the pair. The channel is
// closed when the endpoint closes or the group is deregistered. An
// envelope arriving for a pair no reader claimed is dropped and counted
// (DropStats), not deposited, so nothing accumulates where nothing reads.
// Who claims what: a group's engine its Data and Ctl (Register), the
// heartbeat detector (ident.NodeGroup, FailureDetector) as it starts, and
// a consensus.Service its group's Ctl as it is created. No endpoint
// claims anything at construction.
//
// InboxBatch is the amortised form of Inbox: one receive yields every
// envelope pending for (g, ch) at that moment (bounded per receive),
// preserving FIFO order. The yielded slice is owned by the transport and
// is valid only until the consumer's next receive from the same channel —
// a consumer keeping an envelope (or its payload) past that point must
// copy it. An inbox is consumed either via Inbox or via InboxBatch, fixed
// by whichever is called first for that (g, ch); mixing the two on one
// inbox panics.
//
// Register creates group g's Data and Ctl inboxes ahead of traffic
// (idempotent), so no peer traffic can race the engine's first read;
// Deregister removes and closes every inbox of g, so stray traffic for a
// departed group is dropped and counted instead of accumulating.
type Endpoint interface {
	Self() ident.PID
	Send(to ident.PID, g ident.GroupID, ch Channel, m any) error
	Inbox(g ident.GroupID, ch Channel) <-chan Envelope
	InboxBatch(g ident.GroupID, ch Channel) <-chan []Envelope
	Register(g ident.GroupID)
	Deregister(g ident.GroupID)
	Close() error
}
