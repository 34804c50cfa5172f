package obs

import (
	"context"
	"log/slog"
	"time"
)

// DropReason is the typed label attached to every discarded envelope or
// message. Before this layer existed several of these paths were counted
// without a reason, or not counted at all; every silent discard now names
// why.
type DropReason string

const (
	// DropStaleView: a data message for a view other than the current one.
	DropStaleView DropReason = "stale_view"
	// DropCovered: a duplicate, or a message obsoleted by one already
	// queued or delivered (Figure 1, t3).
	DropCovered DropReason = "covered"
	// DropStaleCredit: a flow-control credit grant from another view.
	DropStaleCredit DropReason = "stale_credit"
	// DropExcessCredit: a credit grant that would lift the sender's credits
	// past its window; the window is kept and the excess dropped.
	DropExcessCredit DropReason = "excess_credit"
	// DropDeferOverflow: a future-view control envelope past the defer cap.
	DropDeferOverflow DropReason = "defer_overflow"
	// DropJoinOverflow: an admission request past the cap on parked ones.
	DropJoinOverflow DropReason = "join_overflow"
	// DropBadType: an envelope whose payload is not the type its channel
	// carries — a miscoded or hostile peer.
	DropBadType DropReason = "bad_type"
	// DropUnknownCtl: a control message of no known kind.
	DropUnknownCtl DropReason = "unknown_ctl"
	// DropExpelled: traffic arriving after this process was expelled.
	DropExpelled DropReason = "expelled"
	// DropUnknownSender: a current-view data message or credit grant in the
	// name of a process that is not a member of the view.
	DropUnknownSender DropReason = "unknown_sender"
	// DropUnknownGroup: transport traffic for a group this node does not
	// host (or no longer hosts).
	DropUnknownGroup DropReason = "unknown_group"
	// DropUnknownChannel: transport traffic outside the defined channels.
	DropUnknownChannel DropReason = "unknown_channel"
)

// Events is the structured protocol-event sink: a thin, nil-safe wrapper
// over log/slog emitting one record per protocol transition, with
// per-node/per-group attrs attached via With. A nil *Events discards
// everything at the cost of a nil check, so runtime code never guards its
// emit calls.
type Events struct {
	log *slog.Logger
}

// NewEvents wraps l; nil l yields the discarding sink.
func NewEvents(l *slog.Logger) *Events {
	if l == nil {
		return nil
	}
	return &Events{log: l}
}

// With returns an Events whose records all carry attrs (e.g. node and
// group identity).
func (e *Events) With(attrs ...slog.Attr) *Events {
	if e == nil {
		return nil
	}
	args := make([]any, len(attrs))
	for i, a := range attrs {
		args[i] = a
	}
	return &Events{log: e.log.With(args...)}
}

// emit writes one event record.
func (e *Events) emit(level slog.Level, event string, attrs ...slog.Attr) {
	if e == nil {
		return
	}
	e.log.LogAttrs(context.Background(), level, event, attrs...)
}

// ViewInstall reports a new view installed: its id, size, flush-set size
// and how long the group was blocked.
func (e *Events) ViewInstall(view uint64, members, flush int, blocked time.Duration) {
	e.emit(slog.LevelInfo, "view_install",
		slog.Uint64("view", view),
		slog.Int("members", members),
		slog.Int("flush", flush),
		slog.Duration("blocked", blocked))
}

// MemberChange reports processes joining or leaving at a view install.
func (e *Events) MemberChange(view uint64, joined, evicted []string) {
	if e == nil || (len(joined) == 0 && len(evicted) == 0) {
		return
	}
	e.emit(slog.LevelInfo, "member_change",
		slog.Uint64("view", view),
		slog.Any("joined", joined),
		slog.Any("evicted", evicted))
}

// Suspicion reports a failure-detector suspicion change.
func (e *Events) Suspicion(peer string, suspected bool) {
	e.emit(slog.LevelWarn, "suspicion",
		slog.String("peer", peer),
		slog.Bool("suspected", suspected))
}

// FlowBlocked reports a multicast parking on flow control.
func (e *Events) FlowBlocked(seq uint64) {
	e.emit(slog.LevelDebug, "flow_blocked", slog.Uint64("seq", seq))
}

// FlowUnblocked reports a parked multicast committing, with the stall.
func (e *Events) FlowUnblocked(seq uint64, blocked time.Duration) {
	e.emit(slog.LevelDebug, "flow_unblocked",
		slog.Uint64("seq", seq),
		slog.Duration("blocked", blocked))
}

// StateTransfer reports a join state transfer (sent or received).
func (e *Events) StateTransfer(dir string, peer string, view uint64, backlog, bytes int) {
	e.emit(slog.LevelInfo, "state_transfer",
		slog.String("dir", dir),
		slog.String("peer", peer),
		slog.Uint64("view", view),
		slog.Int("backlog", backlog),
		slog.Int("bytes", bytes))
}

// JoinComplete reports a joining engine installing its first view.
func (e *Events) JoinComplete(view uint64, members int, took time.Duration) {
	e.emit(slog.LevelInfo, "join_complete",
		slog.Uint64("view", view),
		slog.Int("members", members),
		slog.Duration("took", took))
}

// Expelled reports this process being removed from the group.
func (e *Events) Expelled(view uint64) {
	e.emit(slog.LevelWarn, "expelled", slog.Uint64("view", view))
}

// Drop reports one discarded envelope with its typed reason.
func (e *Events) Drop(reason DropReason, attrs ...slog.Attr) {
	if e == nil {
		return
	}
	e.emit(slog.LevelDebug, "drop",
		append([]slog.Attr{slog.String("reason", string(reason))}, attrs...)...)
}

// SendError reports a transport send that failed and was swallowed by a
// best-effort path (the crash-stop model treats these as the peer's
// problem, but they should never be invisible).
func (e *Events) SendError(peer string, err error) {
	if e == nil || err == nil {
		return
	}
	e.emit(slog.LevelDebug, "send_error",
		slog.String("peer", peer),
		slog.String("err", err.Error()))
}

// ConsensusDecision reports one consensus instance deciding.
func (e *Events) ConsensusDecision(instance string, rounds int) {
	e.emit(slog.LevelDebug, "consensus_decision",
		slog.String("instance", instance),
		slog.Int("rounds", rounds))
}

// DecisionFailed reports a consensus outcome the engine could not use — a
// decode failure or an error where a view decision was expected. These
// were silently discarded before.
func (e *Events) DecisionFailed(view uint64, err error) {
	if e == nil || err == nil {
		return
	}
	e.emit(slog.LevelError, "decision_failed",
		slog.Uint64("view", view),
		slog.String("err", err.Error()))
}

// DecisionIgnored reports a consensus decision that was not installed — a
// decision landing while unblocked, or the losing branch of concurrent view
// proposals — by its consensus instance.
func (e *Events) DecisionIgnored(instance string, reason string) {
	e.emit(slog.LevelDebug, "decision_ignored",
		slog.String("instance", instance),
		slog.String("reason", reason))
}

// SplitDeclared reports a blocked minority declaring its continuation as a
// sub-view under a fresh lineage epoch.
func (e *Events) SplitDeclared(view string, members int) {
	e.emit(slog.LevelWarn, "split_declared",
		slog.String("view", view),
		slog.Int("members", members))
}

// MergeStarted reports a partition merge beginning: the union view under
// decision and the two sides being joined.
func (e *Events) MergeStarted(view, sideA, sideB string, union int) {
	e.emit(slog.LevelInfo, "merge_started",
		slog.String("view", view),
		slog.String("side_a", sideA),
		slog.String("side_b", sideB),
		slog.Int("union", union))
}

// MergeComplete reports a union view installing, with the flush-set size,
// the contribution bytes received and the handshake duration.
func (e *Events) MergeComplete(view string, members, flush, bytes int, took time.Duration) {
	e.emit(slog.LevelInfo, "merge_complete",
		slog.String("view", view),
		slog.Int("members", members),
		slog.Int("flush", flush),
		slog.Int("bytes", bytes),
		slog.Duration("took", took))
}

// MergeAborted reports a merge abandoned before its union view decided;
// the engine unblocks and retries on a later probe.
func (e *Events) MergeAborted(view string, reason string) {
	e.emit(slog.LevelWarn, "merge_aborted",
		slog.String("view", view),
		slog.String("reason", reason))
}
