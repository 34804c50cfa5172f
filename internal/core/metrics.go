package core

import (
	"repro/internal/obs"
)

// Reasons a consensus decision is accounted as ignored (ignoreDecision).
const (
	ignoreDuplicate  = "duplicate"   // the decision for the view just installed, reported twice
	ignoreNotBlocked = "not_blocked" // a decide flood landing while unblocked
	ignoreWrongView  = "wrong_view"  // the losing branch of concurrent proposals
)

// engMetrics are the engine's instruments, resolved once at construction.
// Every field is nil-safe: an engine built without a registry records
// nothing and pays one nil check per site. The Stats struct (delivery.go)
// remains the loop-owned source-compatible snapshot; these instruments are
// the exported, label-scoped view of the same sites plus the timings the
// plain counters cannot carry.
type engMetrics struct {
	// Protocol counters (mirroring Stats fields).
	multicast      *obs.Counter
	delivered      *obs.Counter
	viewsInstalled *obs.Counter
	purgedOutgoing *obs.Counter
	flushAdded     *obs.Counter
	parks          *obs.Counter
	stablePruned   *obs.Counter
	joinBytesSent  *obs.Counter
	joinBytesRecv  *obs.Counter

	// Previously silent (or silently-swallowed) paths, now typed.
	dropStale         *obs.Counter // engine_dropped_total{reason=stale_view}
	dropCovered       *obs.Counter // {reason=covered}
	dropStaleCredit   *obs.Counter // {reason=stale_credit}
	dropDefer         *obs.Counter // {reason=defer_overflow}
	dropBadType       *obs.Counter // {reason=bad_type}
	dropUnknownCtl    *obs.Counter // {reason=unknown_ctl}
	dropExpelled      *obs.Counter // {reason=expelled}
	dropUnknownSender *obs.Counter // {reason=unknown_sender}
	sendErrors        *obs.Counter
	decisionFails     *obs.Counter
	creditFlushes     *obs.Counter // owed-credit batches flushed to senders

	// decisionsIgnored counts consensus decisions the engine received but
	// could not install, by reason — engine_decisions_ignored_total{reason=}.
	// With concurrent proposals (splits, merges) some losers are expected;
	// the label tells an operator whether the losses are the benign kind.
	decisionsIgnored map[string]*obs.Counter

	// Partition healing (merge.go).
	mergesTotal *obs.Counter // view_merge_total: union views installed
	mergeAborts *obs.Counter // view_merge_aborts_total: merges timed out

	// Gauges (current state, refreshed by syncSnapshots).
	view      *obs.Gauge
	members   *obs.Gauge
	qLen      *obs.Gauge
	qMax      *obs.Gauge // delivery-queue high-water mark
	histLen   *obs.Gauge
	purgedQ   *obs.Gauge // cumulative delivery-queue purges (queue-owned)
	blockedG  *obs.Gauge // 1 while the group is blocked for a view change
	flushLast *obs.Gauge // size of the last decided flush set
	parkedG   *obs.Gauge // multicasts currently parked on flow control

	// Timings.
	deliverLatency *obs.Histogram // enqueue -> application deliver
	viewChange     *obs.Histogram // block (t5) -> install (t7)
	joinDur        *obs.Histogram // Start -> first installed view (joiner)
	parkDur        *obs.Histogram // multicast park -> commit (flow control)

	// Data-plane batching.
	batchSize *obs.Histogram // messages committed per multicast transaction

	// Partition-healing timings and sizes.
	mergeDur   *obs.Histogram // view_merge_seconds: merge start -> union install
	mergeBytes *obs.Histogram // view_merge_delta_bytes: contribution bytes per merge
}

func newEngMetrics(ob *obs.Obs) engMetrics {
	drop := func(reason obs.DropReason) *obs.Counter {
		return ob.CounterL("engine_dropped_total", obs.L("reason", string(reason)))
	}
	ignored := func(reason string) *obs.Counter {
		return ob.CounterL("engine_decisions_ignored_total", obs.L("reason", reason))
	}
	return engMetrics{
		multicast:      ob.Counter("engine_multicast_total"),
		delivered:      ob.Counter("engine_delivered_total"),
		viewsInstalled: ob.Counter("engine_views_installed_total"),
		purgedOutgoing: ob.Counter("engine_purged_outgoing_total"),
		flushAdded:     ob.Counter("engine_flush_added_total"),
		parks:          ob.Counter("engine_multicast_parks_total"),
		stablePruned:   ob.Counter("engine_stable_pruned_total"),
		joinBytesSent:  ob.Counter("engine_join_bytes_sent_total"),
		joinBytesRecv:  ob.Counter("engine_join_bytes_recv_total"),

		dropStale:         drop(obs.DropStaleView),
		dropCovered:       drop(obs.DropCovered),
		dropStaleCredit:   drop(obs.DropStaleCredit),
		dropDefer:         drop(obs.DropDeferOverflow),
		dropBadType:       drop(obs.DropBadType),
		dropUnknownCtl:    drop(obs.DropUnknownCtl),
		dropExpelled:      drop(obs.DropExpelled),
		dropUnknownSender: drop(obs.DropUnknownSender),
		sendErrors:        ob.Counter("engine_send_errors_total"),
		decisionFails:     ob.Counter("engine_decision_failures_total"),
		creditFlushes:     ob.Counter("engine_credit_flushes_total"),

		decisionsIgnored: map[string]*obs.Counter{
			ignoreDuplicate:  ignored(ignoreDuplicate),
			ignoreNotBlocked: ignored(ignoreNotBlocked),
			ignoreWrongView:  ignored(ignoreWrongView),
		},

		mergesTotal: ob.Counter("view_merge_total"),
		mergeAborts: ob.Counter("view_merge_aborts_total"),

		view:      ob.Gauge("engine_view"),
		members:   ob.Gauge("engine_members"),
		qLen:      ob.Gauge("engine_todeliver_len"),
		qMax:      ob.Gauge("engine_todeliver_max"),
		histLen:   ob.Gauge("engine_history_len"),
		purgedQ:   ob.Gauge("engine_purged_todeliver"),
		blockedG:  ob.Gauge("engine_blocked"),
		flushLast: ob.Gauge("engine_last_flush_len"),
		parkedG:   ob.Gauge("engine_parked_current"),

		deliverLatency: ob.Histogram("engine_deliver_latency_seconds", obs.DurationBuckets),
		viewChange:     ob.Histogram("engine_view_change_seconds", obs.DurationBuckets),
		joinDur:        ob.Histogram("engine_join_seconds", obs.DurationBuckets),
		parkDur:        ob.Histogram("engine_multicast_park_seconds", obs.DurationBuckets),

		batchSize: ob.Histogram("engine_batch_size", obs.CountBuckets),

		mergeDur:   ob.Histogram("view_merge_seconds", obs.DurationBuckets),
		mergeBytes: ob.Histogram("view_merge_delta_bytes", obs.CountBuckets),
	}
}
