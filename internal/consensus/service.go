package consensus

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Service runs one group's consensus instances on their own goroutine, for
// callers that have no loop of their own: one goroutine drives one Machine
// from the group's Ctl inbox, rechecks the detector on a poll, and answers
// blocking Propose calls. Consensus rounds are control traffic, so they
// travel on the group's Ctl channel, as a group engine's machine sends
// them; the Service is that inbox's reader, and so is not for a group an
// engine runs on the same endpoint. Instance ids only need to be unique
// within a group, so a node hosting many groups runs one Service per group.
type Service struct {
	inbox <-chan []transport.Envelope
	clock obs.Clock
	m     *Machine

	reqC chan proposal
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// poll is how often the driver rechecks the coordinators instances await.
const poll = 2 * time.Millisecond

var errStopped = errors.New("consensus: service stopped")

// proposal is one Propose call handed to the driver; res is buffered, so
// the driver never blocks on a caller that gave up.
type proposal struct {
	id           string
	participants ident.PIDs
	value        []byte
	res          chan outcome
}

type outcome struct {
	v   []byte
	err error
}

// New returns a stopped service for one group's consensus instances; call
// Start. It claims the group's Ctl inbox before it returns, so a peer's
// rounds that arrive before Start wait there rather than being dropped. ob
// supplies the poll clock, metrics and events; nil uses the wall clock
// with no instrumentation.
func New(ep transport.Endpoint, det fd.Detector, group ident.GroupID, ob *obs.Obs) *Service {
	send := func(to ident.PID, m Msg) { _ = ep.Send(to, group, transport.Ctl, m) }
	return &Service{
		inbox: ep.InboxBatch(group, transport.Ctl),
		clock: ob.Clock(),
		m:     NewMachine(ep.Self(), send, det, ob),
		reqC:  make(chan proposal),
		done:  make(chan struct{}),
	}
}

// Start launches the driver.
func (s *Service) Start() {
	s.wg.Add(1)
	go s.drive()
}

// Stop terminates the driver; pending Propose calls fail.
func (s *Service) Stop() {
	s.once.Do(func() { close(s.done) })
	s.wg.Wait()
}

// Propose runs instance id among participants with the given initial value
// (see Machine.Propose) and blocks until it decides, the context is
// cancelled, or the service stops. A decided instance answers at once.
func (s *Service) Propose(ctx context.Context, id string, participants ident.PIDs, value []byte) ([]byte, error) {
	p := proposal{id: id, participants: participants, value: value, res: make(chan outcome, 1)}
	select {
	case s.reqC <- p:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		return nil, errStopped
	}
	select {
	case o := <-p.res:
		return o.v, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		return nil, errStopped
	}
}

// drive is the service's one goroutine: every machine input happens here.
func (s *Service) drive() {
	defer s.wg.Done()
	tick := s.clock.NewTicker(poll)
	defer tick.Stop()
	waiters := make(map[string][]chan outcome)
	for {
		var ds []Decision
		select {
		case <-s.done:
			return
		case envs, ok := <-s.inbox:
			if !ok {
				return
			}
			for _, env := range envs {
				if m, ok := env.Msg.(Msg); ok {
					ds = append(ds, s.m.Receive(env.From, m)...)
				}
			}
		case <-tick.C():
			ds = s.m.Recheck()
		case p := <-s.reqC:
			if v, ok := s.m.Decided(p.id); ok {
				p.res <- outcome{v: v}
				break
			}
			var err error
			if ds, err = s.m.Propose(p.id, p.participants, p.value); err != nil {
				p.res <- outcome{err: err}
				break
			}
			waiters[p.id] = append(waiters[p.id], p.res)
		}
		for _, d := range ds {
			for _, w := range waiters[d.Instance] {
				w <- outcome{v: d.Value}
			}
			delete(waiters, d.Instance)
		}
	}
}
