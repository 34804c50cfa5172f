// Package trace models the update workload of a multi-player game server,
// calibrated to the measurements the paper reports for an instrumented
// Quake session (§5.2): 5 players, ≈6 minutes, 11 696 rounds at a target
// of 30 rounds/s, an average of 42.33 active items of which 1.39 are
// modified per round, 41.88% of messages never becoming obsolete, a
// heavy-tailed item-modification frequency (Fig. 3a) and obsolescence
// distances concentrated under 10 messages (Fig. 3b).
//
// The paper's raw traces are not available; this package substitutes a
// synthetic generator whose traffic is statistically equivalent in every
// dimension the simulation consumes: message arrival pattern (bursty
// rounds) and the obsolescence relation between messages. The generator's
// model:
//
//   - a fixed population of persistent items (players, doors, platforms)
//     touched in short bursts of consecutive-round updates, with burst
//     targets drawn from a Zipf distribution over item rank — producing
//     Fig. 3a's shape;
//   - transient items (projectiles) that are created, updated a couple of
//     times and destroyed — creations, destructions and each item's final
//     update never become obsolete, producing the large never-obsolete
//     share;
//   - per-round update counts that fluctuate (bursts), producing the
//     paper's observation that receivers must outpace the average rate.
//
// Generate costs time linear in the session and a constant number of
// allocations; TestGenerateGolden pins its stream draw for draw.
package trace

import (
	"math"
	"math/rand"
)

// EventKind is the kind of a trace event.
type EventKind uint8

const (
	// Create introduces an item (reliable message).
	Create EventKind = iota + 1
	// Update modifies an item (obsoleted by the item's next update).
	Update
	// Destroy removes an item (reliable message).
	Destroy
)

func (k EventKind) String() string {
	switch k {
	case Create:
		return "create"
	case Update:
		return "update"
	case Destroy:
		return "destroy"
	default:
		return "?"
	}
}

// Event is one message of the session: an operation on an item emitted in
// a given round.
type Event struct {
	Round int
	Kind  EventKind
	Item  uint32
}

// Trace is a recorded (or generated) session.
type Trace struct {
	// Rounds is the number of simulation rounds in the session.
	Rounds int
	// RoundsPerSec converts rounds to time (the paper's server targets 30).
	RoundsPerSec float64
	// Events is the message stream in emission order.
	Events []Event
	// ActivePerRound is the number of live items at each round.
	ActivePerRound []int
}

// Params configures the generator. DefaultParams reproduces the §5.2
// statistics; the sweep benchmarks vary individual fields.
type Params struct {
	Rounds       int
	Seed         int64
	RoundsPerSec float64

	// PersistentItems is the fixed item population (players, world items).
	PersistentItems int
	// ZipfS is the skew of burst-target selection by item rank.
	ZipfS float64
	// BurstStartsPerRound is the Poisson rate of new persistent bursts.
	BurstStartsPerRound float64
	// BurstLenMean is the geometric mean length (rounds) of a burst; the
	// bursting item is updated once per round while it lasts.
	BurstLenMean float64

	// TransientSpawnsPerRound is the Poisson rate of projectile spawns.
	TransientSpawnsPerRound float64
	// TransientUpdatesMean is the geometric mean number of updates a
	// transient item receives between creation and destruction.
	TransientUpdatesMean float64
}

// DefaultParams returns the calibration targeting the paper's session.
func DefaultParams() Params {
	return Params{
		Rounds:                  11696,
		Seed:                    42,
		RoundsPerSec:            30,
		PersistentItems:         42,
		ZipfS:                   1.30,
		BurstStartsPerRound:     0.27,
		BurstLenMean:            2.4,
		TransientSpawnsPerRound: 0.19,
		TransientUpdatesMean:    2.0,
	}
}

// ScalePlayers adjusts the parameters as if the session had the given
// number of players instead of the calibration's five. §5.2 reports the
// effect of more players: "the message rate increases, the share of
// messages that never become obsolete decreases, but the distance between
// related messages increases" — more items are touched concurrently, so
// consecutive updates of one item sit further apart in the stream, while
// persistent traffic (almost all of which eventually becomes obsolete)
// grows faster than projectile traffic.
func ScalePlayers(p Params, players int) Params {
	if players <= 0 || players == 5 {
		return p
	}
	scale := float64(players) / 5
	p.PersistentItems = int(float64(p.PersistentItems) * scale)
	p.BurstStartsPerRound *= scale
	p.TransientSpawnsPerRound *= 1 + (scale-1)*0.5 // projectiles grow sub-linearly
	return p
}

// Generate produces a session from p. The same Params yield the same
// trace.
func Generate(p Params) *Trace {
	rng := rand.New(rand.NewSource(p.Seed))
	// Events is allocated once, for the mean traffic and a quarter more.
	perRound := math.Max(p.BurstStartsPerRound, 0)*math.Max(p.BurstLenMean, 1) +
		math.Max(p.TransientSpawnsPerRound, 0)*(math.Max(p.TransientUpdatesMean, 1)+2)
	tr := &Trace{
		Rounds:         p.Rounds,
		RoundsPerSec:   p.RoundsPerSec,
		Events:         make([]Event, 0, int(float64(p.Rounds)*perRound*1.25)+64),
		ActivePerRound: make([]int, p.Rounds),
	}

	zipf := newZipfPicker(p.PersistentItems, p.ZipfS, rng)
	burst := make([]int, max(p.PersistentItems, 1)) // item-1 -> remaining burst rounds
	bursting := 0                                   // items with burst rounds left
	transient := make([]projectile, 0, 64)          // live, in creation (= id) order
	nextTransient := uint32(1_000_000)
	bursts, spawns := newPoisson(p.BurstStartsPerRound), newPoisson(p.TransientSpawnsPerRound)

	for r := 0; r < p.Rounds; r++ {
		start := len(tr.Events)
		// New persistent bursts, then one update per bursting item.
		for i := bursts.sample(rng); i > 0; i-- {
			item := zipf.pick() - 1
			if burst[item] == 0 {
				bursting++
			}
			burst[item] += geometric(rng, p.BurstLenMean)
		}
		for i, n := 0, bursting; n > 0; i++ {
			if burst[i] > 0 {
				n--
				tr.Events = append(tr.Events, Event{Round: r, Kind: Update, Item: uint32(i + 1)})
				if burst[i]--; burst[i] == 0 {
					bursting--
				}
			}
		}

		// Transients: spawn this round (the tail, which the walk skips),
		// update once a round from the next on, destroy when updates run out.
		old := len(transient)
		for i := spawns.sample(rng); i > 0; i-- {
			tr.Events = append(tr.Events, Event{Round: r, Kind: Create, Item: nextTransient})
			transient = append(transient, projectile{nextTransient, geometric(rng, p.TransientUpdatesMean)})
			nextTransient++
		}
		live := 0
		for _, pr := range transient[:old] {
			if pr.left == 0 {
				tr.Events = append(tr.Events, Event{Round: r, Kind: Destroy, Item: pr.id})
				continue
			}
			tr.Events = append(tr.Events, Event{Round: r, Kind: Update, Item: pr.id})
			transient[live] = projectile{pr.id, pr.left - 1}
			live++
		}
		transient = transient[:live+copy(transient[live:], transient[old:])]

		// Interleave the round's messages as a real server would emit them;
		// a transient item is only created (never also updated) in its spawn
		// round, so any permutation keeps every item's stream well-formed.
		round := tr.Events[start:]
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		tr.ActivePerRound[r] = p.PersistentItems + len(transient)
	}
	return tr
}

// projectile is a live transient item and its remaining updates.
type projectile struct {
	id   uint32
	left int
}

// Duration returns the session length in seconds.
func (t *Trace) Duration() float64 {
	if t.RoundsPerSec <= 0 {
		return 0
	}
	return float64(t.Rounds) / t.RoundsPerSec
}

// MeanRate returns the average message rate in messages per second.
func (t *Trace) MeanRate() float64 {
	d := t.Duration()
	if d == 0 {
		return 0
	}
	return float64(len(t.Events)) / d
}

// ---- distributions ----------------------------------------------------------

// poisson samples Poisson variates with a fixed rate (Knuth's algorithm;
// fine for the small rates used here). A rate that is not positive draws
// nothing from the generator.
type poisson struct{ rate, limit float64 }

func newPoisson(rate float64) poisson { return poisson{rate: rate, limit: math.Exp(-rate)} }

func (d poisson) sample(rng *rand.Rand) int {
	if d.rate <= 0 {
		return 0
	}
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= d.limit {
			return k
		}
		k++
	}
}

// geometric samples a geometric variate with the given mean, support ≥ 1.
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for rng.Float64() > p && n < int(mean*10) {
		n++
	}
	return n
}

// zipfPicker draws item ids 1..n with P(rank r) ∝ 1/r^s.
type zipfPicker struct {
	cum []float64
	rng *rand.Rand
}

func newZipfPicker(n int, s float64, rng *rand.Rand) *zipfPicker {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipfPicker{cum: cum, rng: rng}
}

func (z *zipfPicker) pick() uint32 {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo + 1) // item ids are 1-based ranks
}
