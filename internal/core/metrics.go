package core

import (
	"sync"

	"repro/internal/ident"
	"repro/internal/obs"
)

// Reasons a consensus decision is accounted as ignored (onDecision).
const (
	ignoreNotBlocked = "not_blocked" // a decision landing after its change ended
	ignoreWrongView  = "wrong_view"  // the losing branch of concurrent proposals
)

// dropOverspent labels a data message dropped beyond the credits its sender
// was granted (admit).
const dropOverspent obs.DropReason = "overspent"

// engMetrics are the timings and sizes a plain counter cannot carry,
// resolved once at construction. Every field is nil-safe: an engine built
// without a registry pays one nil check per site. Events are counted in
// Stats and nowhere else; statsExport is how the registry reads them.
type engMetrics struct {
	deliverLatency *obs.Histogram // enqueue -> application deliver
	viewChange     *obs.Histogram // block (t5) -> install (t7)
	joinDur        *obs.Histogram // Start -> first installed view (joiner)
	parkDur        *obs.Histogram // multicast park -> commit (flow control)
	batchSize      *obs.Histogram // messages committed per multicast transaction
	mergeDur       *obs.Histogram // merge start -> union install
	mergeBytes     *obs.Histogram // contribution bytes per merge
}

func newEngMetrics(ob *obs.Obs) *engMetrics {
	return &engMetrics{
		deliverLatency: ob.Histogram("engine_deliver_latency_seconds", obs.DurationBuckets),
		viewChange:     ob.Histogram("engine_view_change_seconds", obs.DurationBuckets),
		joinDur:        ob.Histogram("engine_join_seconds", obs.DurationBuckets),
		parkDur:        ob.Histogram("engine_multicast_park_seconds", obs.DurationBuckets),
		batchSize:      ob.Histogram("engine_batch_size", obs.CountBuckets),
		mergeDur:       ob.Histogram("view_merge_seconds", obs.DurationBuckets),
		mergeBytes:     ob.Histogram("view_merge_delta_bytes", obs.CountBuckets),
	}
}

// published is what the outside may read of an engine: the loop's view,
// whom the group needs monitored (viewState.watching) and its counters as of
// its last completed turn, copied under mu by publish. It is
// allocated apart from the Engine so that its readers — the facade's View
// and Stats, the node's heartbeat and the registry source export registers
// — hold this small value and never the engine.
type published struct {
	mu      sync.Mutex
	view    View
	watched ident.PIDs
	stats   Stats
}

func (p *published) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// publish copies s, whose turn has ended (endTurn), into p — the view only
// when it changed, whom it watches only when that did — and then releases
// the replies of the turn, so a call that returns finds its own effect in p.
func (p *published) publish(s *viewState) {
	p.mu.Lock()
	if p.view.Ref() != s.cv.Ref() {
		// Every view has a ref of its own: cloning per turn would put a
		// members alloc on the per-batch hot path.
		p.view = s.cv.Clone()
	}
	if w := s.watching(); !w.Equal(p.watched) {
		p.watched = w.Clone()
	}
	p.stats = s.stats
	p.mu.Unlock()
	for _, req := range s.replies {
		req.resC <- req.res // buffered, one reply per request: never blocks
	}
	clear(s.replies)
	s.replies = s.replies[:0]
}

// export makes the registry of ob read p whenever it is snapshotted: one
// value per row of statsExport, as of the loop's last completed turn —
// what Stats shows at that moment.
func (p *published) export(ob *obs.Obs) {
	ob.AddSource(func(emit obs.Emit) {
		st := p.Stats()
		for _, row := range statsExport {
			emit(row.name, row.kind, row.get(&st), row.labels...)
		}
	})
}

func reason[S ~string](r S) []obs.Label { return []obs.Label{obs.L("reason", string(r))} }

// statsExport is the engine's metric catalogue: every counter and gauge it
// exports (each under the engine's node and group labels) and the Stats
// field it is read from. README "Metric catalogue" documents these names;
// TestMetricCatalogueDocumented and TestRegistryMatchesStats hold the three
// together.
var statsExport = []struct {
	name   string
	kind   obs.Kind
	labels []obs.Label
	get    func(*Stats) uint64
}{
	{"engine_multicast_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.Multicast }},
	{"engine_delivered_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.Delivered }},
	{"engine_views_installed_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.ViewsInstalled }},
	{"engine_purged_outgoing_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.PurgedOutgoing }},
	{"engine_flush_added_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.FlushAdded }},
	{"engine_multicast_parks_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.MulticastParks }},
	{"engine_stable_pruned_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.StablePruned }},
	{"engine_join_bytes_sent_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.JoinBytesSent }},
	{"engine_join_bytes_recv_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.JoinBytesRecv }},
	{"engine_dropped_total", obs.KindCounter, reason(obs.DropStaleView), func(s *Stats) uint64 { return s.DroppedStale }},
	{"engine_dropped_total", obs.KindCounter, reason(obs.DropCovered), func(s *Stats) uint64 { return s.DroppedCovered }},
	{"engine_dropped_total", obs.KindCounter, reason(obs.DropStaleCredit), func(s *Stats) uint64 { return s.CreditsStaleView }},
	{"engine_dropped_total", obs.KindCounter, reason(obs.DropExcessCredit), func(s *Stats) uint64 { return s.CreditsExcess }},
	{"engine_dropped_total", obs.KindCounter, reason(obs.DropDeferOverflow), func(s *Stats) uint64 { return s.CtlDeferredDropped }},
	{"engine_dropped_total", obs.KindCounter, reason(obs.DropJoinOverflow), func(s *Stats) uint64 { return s.JoinReqDropped }},
	{"engine_dropped_total", obs.KindCounter, reason(obs.DropBadType), func(s *Stats) uint64 { return s.DroppedBadType }},
	{"engine_dropped_total", obs.KindCounter, reason(obs.DropUnknownCtl), func(s *Stats) uint64 { return s.DroppedUnknownCtl }},
	{"engine_dropped_total", obs.KindCounter, reason(obs.DropExpelled), func(s *Stats) uint64 { return s.DroppedExpelled }},
	{"engine_dropped_total", obs.KindCounter, reason(obs.DropUnknownSender), func(s *Stats) uint64 { return s.DroppedUnknownSender }},
	{"engine_dropped_total", obs.KindCounter, reason(dropOverspent), func(s *Stats) uint64 { return s.DroppedOverspent }},
	{"engine_send_errors_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.SendErrors }},
	{"engine_decision_failures_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.DecisionFailures }},
	{"engine_credit_flushes_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.CreditFlushes }},
	{"engine_decisions_ignored_total", obs.KindCounter, reason(ignoreNotBlocked), func(s *Stats) uint64 { return s.IgnoredNotBlocked }},
	{"engine_decisions_ignored_total", obs.KindCounter, reason(ignoreWrongView), func(s *Stats) uint64 { return s.IgnoredWrongView }},
	{"view_merge_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.Merges }},
	{"view_merge_aborts_total", obs.KindCounter, nil, func(s *Stats) uint64 { return s.MergeAborts }},

	{"engine_view", obs.KindGauge, nil, func(s *Stats) uint64 { return uint64(s.View) }},
	{"engine_members", obs.KindGauge, nil, func(s *Stats) uint64 { return uint64(s.Members) }},
	{"engine_todeliver_len", obs.KindGauge, nil, func(s *Stats) uint64 { return uint64(s.ToDeliverLen) }},
	{"engine_todeliver_max", obs.KindGauge, nil, func(s *Stats) uint64 { return uint64(s.ToDeliverMax) }},
	{"engine_history_len", obs.KindGauge, nil, func(s *Stats) uint64 { return uint64(s.HistoryLen) }},
	{"engine_purged_todeliver", obs.KindGauge, nil, func(s *Stats) uint64 { return s.PurgedToDeliver }},
	{"engine_blocked", obs.KindGauge, nil, func(s *Stats) uint64 { return uint64(boolByte(s.Blocked)) }},
	{"engine_last_flush_len", obs.KindGauge, nil, func(s *Stats) uint64 { return uint64(s.LastFlushLen) }},
	{"engine_parked_current", obs.KindGauge, nil, func(s *Stats) uint64 { return uint64(s.Parked) }},
}
