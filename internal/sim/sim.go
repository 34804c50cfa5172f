// Package sim reproduces the throughput study of §5.3/§5.4: a high-level
// discrete event simulation isolating the effect of a single slow receiver
// on a group communication producer.
//
// The model follows the paper: the network is a set of queues with
// unlimited bandwidth (never the bottleneck); a producer injects the
// recorded game traffic; consumers are attached to all nodes and all but
// one consume instantly; the slow consumer takes 1/rate per message; each
// path holds a bounded protocol buffer. When the slow consumer's buffer
// cannot accept a message the producer blocks — the flow control whose
// cost the figures quantify. In Semantic mode, an arriving message purges
// the obsolete messages it covers from the buffer, freeing space without
// consuming; in Reliable mode no purging happens.
package sim

import (
	"math"

	"repro/internal/des"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/trace"
)

// Mode selects the protocol under study.
type Mode uint8

const (
	// Reliable is classic view-synchronous reliability: no purging.
	Reliable Mode = iota + 1
	// Semantic is SVS: obsolete messages are purged from buffers.
	Semantic
)

func (m Mode) String() string {
	switch m {
	case Reliable:
		return "reliable"
	case Semantic:
		return "semantic"
	default:
		return "?"
	}
}

// Config parameterises one run.
type Config struct {
	Mode Mode
	// Buffer is the bounded buffer size per path (the B of Figs. 4/5).
	Buffer int
	// K is the k-enumeration window the stream was annotated with; the
	// paper uses 2×Buffer (§5.2). Defaults to 2×Buffer. It must match the
	// annotation of Msgs.
	K int
	// Msgs is the annotated message stream (trace.Trace.Annotate).
	Msgs []trace.Msg
	// ConsumerRate is the slow consumer's service rate in msg/s;
	// 0 or +Inf means it consumes instantly.
	ConsumerRate float64
	// HaltAt, when positive, stops the slow consumer completely at that
	// virtual time — the perturbation experiment of Fig. 5b.
	HaltAt float64
	// StopOnBlock ends the run the first time the producer blocks after
	// HaltAt (used to measure tolerated perturbation length).
	StopOnBlock bool
}

// Result carries the measurements of one run.
type Result struct {
	// Duration is the virtual time at which the run ended (all messages
	// accepted, or the run stopped early).
	Duration float64
	// BlockedTime is the total time the producer spent blocked.
	BlockedTime float64
	// ProducerIdlePct is BlockedTime relative to Duration, in percent —
	// the y axis of Fig. 4a.
	ProducerIdlePct float64
	// AvgOccupancy is the time-averaged occupancy of the slow path's
	// buffer — the y axis of Fig. 4b.
	AvgOccupancy float64
	// MaxOccupancy is the buffer's high-water mark.
	MaxOccupancy int
	// Purged counts buffer entries removed by semantic purging.
	Purged uint64
	// Delivered counts messages the slow consumer actually consumed.
	Delivered uint64
	// Accepted counts messages accepted by the protocol.
	Accepted int
	// FirstBlock is the virtual time of the first producer block after
	// HaltAt (math.Inf(1) if it never blocked).
	FirstBlock float64
}

// instant reports whether rate means "consumes immediately".
func instant(rate float64) bool { return rate <= 0 || math.IsInf(rate, 1) }

// runner is the live state of one simulation.
type runner struct {
	sim *des.Sim
	cfg Config
	q   *queue.Queue

	idx          int  // next message to accept
	blocked      bool // producer waiting for buffer space
	blockedSince float64

	busy   bool // slow consumer mid-service
	halted bool

	occLast float64 // instant of the last occupancy bookkeeping
	occLen  int     // occupancy level since occLast
	occInt  float64 // ∫ occupancy dt

	res Result
}

// Run executes one simulation.
func Run(cfg Config) Result {
	if cfg.Buffer <= 0 {
		panic("sim: Buffer must be positive")
	}
	if cfg.K <= 0 {
		cfg.K = 2 * cfg.Buffer
	}
	var rel obsolete.Relation = obsolete.Empty{}
	if cfg.Mode == Semantic {
		rel = obsolete.KEnumeration{K: cfg.K}
	}
	r := &runner{
		sim: &des.Sim{},
		cfg: cfg,
		q:   queue.New(rel, cfg.Buffer),
	}
	r.res.FirstBlock = math.Inf(1)

	if cfg.HaltAt > 0 {
		r.sim.At(cfg.HaltAt, func() { r.halted = true })
	}
	if len(cfg.Msgs) > 0 {
		r.sim.At(cfg.Msgs[0].Time, r.produce)
	}
	r.sim.Run()

	if r.blocked { // censored: still blocked when the run ended
		r.noteUnblock(r.sim.Now())
	}
	r.mark() // flush the occupancy integral
	r.res.Duration = r.sim.Now()
	if r.res.Duration > 0 {
		r.res.ProducerIdlePct = 100 * r.res.BlockedTime / r.res.Duration
		r.res.AvgOccupancy = r.occInt / r.res.Duration
	}
	st := r.q.Stats()
	r.res.Purged = st.Purged
	r.res.MaxOccupancy = st.MaxLen
	return r.res
}

// produce advances the producer: accept every available message, block on
// a full buffer.
func (r *runner) produce() {
	for {
		if r.idx >= len(r.cfg.Msgs) {
			return // production finished
		}
		m := r.cfg.Msgs[r.idx]
		now := r.sim.Now()
		if m.Time > now {
			r.sim.At(m.Time, r.produce)
			return
		}
		if !r.accepts(m) {
			if !r.blocked {
				r.blocked = true
				r.blockedSince = now
				if r.cfg.HaltAt > 0 && now >= r.cfg.HaltAt && math.IsInf(r.res.FirstBlock, 1) {
					r.res.FirstBlock = now
					if r.cfg.StopOnBlock {
						r.sim.Halt()
					}
				}
			}
			return // a consumer completion retries
		}
		if r.blocked {
			r.noteUnblock(now)
		}
		r.enqueue(m)
		r.idx++
	}
}

func (r *runner) noteUnblock(now float64) {
	r.res.BlockedTime += now - r.blockedSince
	r.blocked = false
}

// accepts reports whether the slow path can take m right now.
func (r *runner) accepts(m trace.Msg) bool {
	if instant(r.cfg.ConsumerRate) && !r.halted {
		return true
	}
	if !r.busy && !r.halted && r.q.Len() == 0 {
		return true // goes straight into service, no buffer slot needed
	}
	it := item(m)
	return r.q.Len()-r.q.CountPurgeableFor(it) < r.cfg.Buffer
}

// enqueue places m on the slow path (fast consumers are implicit: with
// unlimited bandwidth and instant consumption they never interact with
// the producer).
func (r *runner) enqueue(m trace.Msg) {
	r.res.Accepted++
	if instant(r.cfg.ConsumerRate) && !r.halted {
		r.res.Delivered++
		return
	}
	if !r.busy && !r.halted && r.q.Len() == 0 {
		r.startService()
		return
	}
	if _, err := r.q.AppendPurge(item(m)); err != nil {
		panic("sim: enqueue after accepts returned true")
	}
	r.mark()
}

// startService occupies the consumer for one service time.
func (r *runner) startService() {
	r.busy = true
	service := 0.0
	if !instant(r.cfg.ConsumerRate) {
		service = 1 / r.cfg.ConsumerRate
	}
	r.sim.After(service, r.serviceDone)
}

func (r *runner) serviceDone() {
	r.busy = false
	r.res.Delivered++
	if !r.halted {
		if r.q.PeekHead() != nil {
			r.q.PopHead()
			r.mark()
			r.startService()
		}
	}
	if r.blocked {
		r.produce()
	}
}

// mark integrates the occupancy level since the previous bookkeeping
// instant and records the new level.
func (r *runner) mark() {
	now := r.sim.Now()
	r.occInt += (now - r.occLast) * float64(r.occLen)
	r.occLast = now
	r.occLen = r.q.Len()
}

func item(m trace.Msg) queue.Item {
	return queue.Item{Kind: queue.Data, View: 1, Meta: m.Meta}
}
