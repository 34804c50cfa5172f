package fd

import (
	"sync"

	"repro/internal/ident"
	"repro/internal/ubq"
)

// Fanout shares one failure detector between many consumers. A Detector's
// Events channel is single-consumer, but a node hosting many SVS groups
// runs a single heartbeat detector whose suspicions every group must see.
// Fanout consumes the base detector's event stream once and republishes
// each event to every live Tap; suspicion *queries* go straight to the
// base detector, so all taps always agree with it.
//
// The Fanout owns neither the base detector nor its transport: stopping
// the Fanout stops the republishing (and closes every tap) but leaves the
// base detector running for its owner to stop.
type Fanout struct {
	base Detector

	mu     sync.Mutex
	taps   map[*Tap]struct{}
	closed bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewFanout starts republishing base's events. It becomes the sole
// consumer of base.Events().
func NewFanout(base Detector) *Fanout {
	f := &Fanout{
		base: base,
		taps: make(map[*Tap]struct{}),
		done: make(chan struct{}),
	}
	f.wg.Add(1)
	go f.pump()
	return f
}

func (f *Fanout) pump() {
	defer f.wg.Done()
	in := f.base.Events()
	for {
		select {
		case <-f.done:
			return
		case e, ok := <-in:
			if !ok {
				return
			}
			f.mu.Lock()
			for t := range f.taps {
				t.ev.Push(e)
			}
			f.mu.Unlock()
		}
	}
}

// Tap returns a new per-consumer view of the shared detector. A tap
// created after Stop is already closed (its Events channel is closed).
//
// The base detector's *current* suspicions are replayed into the new tap
// as suspect events: a group created while a shared peer is already down
// must still see the suspicion, even though the base detector emitted it
// before the tap existed. The replay happens under the fan-out lock, so
// it cannot interleave with pumped events; a suspicion in flight in the
// base's channel may be delivered twice, which consumers tolerate
// (repeated suspect events are idempotent for the protocol engine).
func (f *Fanout) Tap() *Tap {
	t := &Tap{f: f, ev: ubq.New[Event]()}
	f.mu.Lock()
	closed := f.closed
	if !closed {
		f.taps[t] = struct{}{}
		for _, p := range f.base.Suspects() {
			t.ev.Push(Event{P: p, Suspected: true})
		}
	}
	f.mu.Unlock()
	if closed {
		t.ev.Close()
	}
	return t
}

func (f *Fanout) remove(t *Tap) {
	f.mu.Lock()
	delete(f.taps, t)
	f.mu.Unlock()
}

// Stop ends the republishing and stops every tap. The base detector is
// left running.
func (f *Fanout) Stop() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.wg.Wait()
		return
	}
	f.closed = true
	taps := make([]*Tap, 0, len(f.taps))
	for t := range f.taps {
		taps = append(taps, t)
	}
	close(f.done)
	f.mu.Unlock()
	f.wg.Wait()
	for _, t := range taps {
		t.Stop()
	}
}

// Tap is one consumer's handle on a shared detector. It implements
// Detector: queries delegate to the shared base, events arrive on the
// tap's own channel. Stopping a tap detaches it from the Fanout without
// affecting the base detector or other taps.
type Tap struct {
	f    *Fanout
	ev   *ubq.Queue[Event]
	once sync.Once
}

var _ Detector = (*Tap)(nil)

// Suspected implements Detector.
func (t *Tap) Suspected(p ident.PID) bool { return t.f.base.Suspected(p) }

// Suspects implements Detector.
func (t *Tap) Suspects() ident.PIDs { return t.f.base.Suspects() }

// Events implements Detector.
func (t *Tap) Events() <-chan Event { return t.ev.Out() }

// Stop implements Detector: it detaches this tap only.
func (t *Tap) Stop() {
	t.once.Do(func() {
		t.f.remove(t)
		t.ev.Close()
	})
}
