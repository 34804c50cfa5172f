package obs

import "log/slog"

// Obs bundles the three pillars a runtime component needs: the clock, the
// metrics registry, and the event sink, plus the label set identifying
// the component (node, group). It is passed down from the deployment
// (svs-demo, tests) through Node and Engine configs; a nil *Obs is valid
// everywhere and means "wall clock, no metrics, no events".
type Obs struct {
	clock  Clock
	reg    *Registry
	events *Events
	labels []Label
}

// New assembles a bundle. Any argument may be nil/zero: a nil clock means
// Wall, a nil registry disables metrics, a nil logger disables events.
func New(clock Clock, reg *Registry, logger *slog.Logger) *Obs {
	return &Obs{clock: clock, reg: reg, events: NewEvents(logger)}
}

// Default returns a bundle with the wall clock, a fresh private registry
// and no events.
func Default() *Obs {
	return &Obs{clock: Wall{}, reg: NewRegistry()}
}

// Nop returns a bundle with the wall clock and no instrumentation at all:
// every Histogram it hands out is nil (recording is a nil check) and
// sources are ignored. It exists to measure instrumentation
// overhead (BenchmarkMulticastInstrumented).
func Nop() *Obs { return &Obs{clock: Wall{}} }

// Clock returns the bundle's clock (Wall for a nil bundle).
func (o *Obs) Clock() Clock {
	if o == nil || o.clock == nil {
		return Wall{}
	}
	return o.clock
}

// Registry returns the bundle's registry (nil when metrics are disabled).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Events returns the event sink with the bundle's labels attached as
// attrs (nil when events are disabled).
func (o *Obs) Events() *Events {
	if o == nil {
		return nil
	}
	ev := o.events
	for _, l := range o.labels {
		ev = ev.With(slog.String(l.Key, l.Value))
	}
	return ev
}

// With returns a derived bundle sharing the clock, registry and sink,
// with the given labels appended: the histograms it creates and the
// values its sources emit carry them, and its Events attach them as
// attrs. Deriving never mutates the parent.
func (o *Obs) With(labels ...Label) *Obs {
	if o == nil {
		return nil
	}
	ls := make([]Label, 0, len(o.labels)+len(labels))
	ls = append(ls, o.labels...)
	ls = append(ls, labels...)
	return &Obs{clock: o.clock, reg: o.reg, events: o.events, labels: ls}
}

// Histogram creates/fetches a histogram carrying the bundle's labels.
func (o *Obs) Histogram(name string, bounds []float64) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.Histogram(name, bounds, o.labels...)
}

// AddSource registers fn with the bundle's registry (Registry.AddSource);
// what fn emits carries the bundle's labels ahead of its own. A bundle
// without a registry ignores it.
func (o *Obs) AddSource(fn func(Emit)) {
	if o == nil || o.reg == nil {
		return
	}
	o.reg.AddSource(func(emit Emit) {
		fn(func(name string, kind Kind, value uint64, labels ...Label) {
			emit(name, kind, value, append(o.labels[:len(o.labels):len(o.labels)], labels...)...)
		})
	})
}
