package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/ident"
	"repro/internal/obs"
)

// maxFrame bounds one batch frame in bytes: the writer chunks its
// coalesced batches to it, and a peer announcing a larger incoming frame
// is treated as faulty and its connection dropped.
const maxFrame = 16 << 20

// TCPStats counts wire activity since the network started. The ratio
// EnvelopesSent/FramesSent is the achieved write-coalescing factor.
type TCPStats struct {
	FramesSent    uint64 // batch frames written (≈ syscalls on the send path)
	EnvelopesSent uint64 // envelopes coalesced into those frames
	BytesSent     uint64
	FramesRecv    uint64
	EnvelopesRecv uint64
	// Drops counts received envelopes discarded because no reader
	// claimed their (group, channel) inbox here.
	Drops DropStats
}

// TCPNetwork implements Endpoint over real TCP connections, so groups can
// span OS processes and machines. One TCP connection is maintained per
// outgoing peer and shared by every group the two nodes have in common;
// TCP's in-order reliable delivery provides the FIFO reliable channel of
// the system model for the lifetime of the session (crash-stop: a broken
// connection is treated as the peer's crash, there is no
// reconnect-and-replay, and Close drops whatever is still queued).
//
// Every wire type must be registered with internal/codec.
//
// Wire format, per connection: a stream of batch frames
//
//	uvarint frameLen | frame body
//
// where the body is the sender PID (uvarint length + bytes) followed by
// one or more envelopes, each
//
//	uvarint GroupID | channel byte | TypeID byte | message encoding
//
// decoded back-to-back until the frame is exhausted. A decode error is a
// protocol violation and closes the connection; a well-formed envelope
// for a (group, channel) inbox no reader claimed is dropped and counted
// (Stats().Drops) without penalising the rest of the stream.
type TCPNetwork struct {
	self     ident.PID
	frameCap int // maxFrame, or a test's smaller bound
	ln       net.Listener
	fromEnc  []byte // self PID pre-encoded for frame bodies
	maxBody  int    // frameCap minus the fromEnc prefix: envelope budget per frame

	framesSent atomic.Uint64
	envsSent   atomic.Uint64
	bytesSent  atomic.Uint64
	framesRecv atomic.Uint64
	envsRecv   atomic.Uint64
	// batch samples envelopes-per-frame on the send path: the achieved
	// write-coalescing factor as a distribution rather than a ratio.
	// rxBatch mirrors it on the receive path: envelopes decoded per
	// incoming frame, handed onwards to the inbox demux in one pass. Both
	// stay nil, recording nothing, until Instrument attaches them; the
	// loops load them atomically because it may do so while they run.
	batch   atomic.Pointer[obs.Histogram]
	rxBatch atomic.Pointer[obs.Histogram]

	boxes *inboxSet

	mu        sync.Mutex
	closed    bool
	closeDone chan struct{}
	peers     map[ident.PID]string
	conns     map[ident.PID]*peerConn
	accepted  map[net.Conn]struct{}
	wg        sync.WaitGroup
}

var _ Endpoint = (*TCPNetwork)(nil)

// wireExport is the TCP endpoint's metric catalogue: the counters a
// registry reads off Stats() when it is snapshotted (README "Metric
// catalogue"). The drop counters are exported by the inbox set, for both
// transports (dropExport).
var wireExport = []struct {
	name string
	get  func(*TCPStats) uint64
}{
	{"tcp_frames_sent_total", func(s *TCPStats) uint64 { return s.FramesSent }},
	{"tcp_envelopes_sent_total", func(s *TCPStats) uint64 { return s.EnvelopesSent }},
	{"tcp_bytes_sent_total", func(s *TCPStats) uint64 { return s.BytesSent }},
	{"tcp_frames_recv_total", func(s *TCPStats) uint64 { return s.FramesRecv }},
	{"tcp_envelopes_recv_total", func(s *TCPStats) uint64 { return s.EnvelopesRecv }},
}

// peerConn is one outgoing connection. Send appends the encoded envelope
// to pend and a per-connection writer goroutine drains pend into batch
// frames.
type peerConn struct {
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	pend   []byte // encoded envelopes awaiting the writer
	ends   []int  // end offset of each envelope in pend (frame chunking)
	closed bool
}

func newPeerConn(conn net.Conn) *peerConn {
	pc := &peerConn{conn: conn}
	pc.cond = sync.NewCond(&pc.mu)
	return pc
}

// close marks the connection dead and wakes its writer. Idempotent.
func (pc *peerConn) close() {
	pc.conn.Close()
	pc.mu.Lock()
	if !pc.closed {
		pc.closed = true
		pc.cond.Broadcast()
	}
	pc.mu.Unlock()
}

// NewTCPNetwork starts listening on listenAddr and returns the endpoint
// for self. peers maps every other group member to its listen address;
// connections are dialed lazily on first send. The wire encoding is fixed:
// the hand-rolled binary encoding of internal/codec with per-peer frame
// batching — the send path drains the pending queue and coalesces every
// waiting envelope into one length-prefixed batch frame per write syscall.
func NewTCPNetwork(self ident.PID, listenAddr string, peers map[ident.PID]string) (*TCPNetwork, error) {
	return newTCPNetwork(self, listenAddr, peers, maxFrame)
}

// newTCPNetwork is NewTCPNetwork with frames bounded by frameCap.
func newTCPNetwork(self ident.PID, listenAddr string, peers map[ident.PID]string, frameCap int) (*TCPNetwork, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	n := &TCPNetwork{
		self:      self,
		frameCap:  frameCap,
		ln:        ln,
		fromEnc:   codec.AppendString(nil, string(self)),
		closeDone: make(chan struct{}),
		peers:     make(map[ident.PID]string, len(peers)),
		conns:     make(map[ident.PID]*peerConn),
		accepted:  make(map[net.Conn]struct{}),
		boxes:     newInboxSet(),
	}
	n.maxBody = frameCap - len(n.fromEnc)
	for p, addr := range peers {
		n.peers[p] = addr
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the actual listen address (useful with ":0").
func (n *TCPNetwork) Addr() string { return n.ln.Addr().String() }

// AddPeer registers (or updates) the address of a peer. It allows groups
// to be bootstrapped with ":0" listeners whose ports are only known after
// every member has started listening.
func (n *TCPNetwork) AddPeer(p ident.PID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[p] = addr
}

// Self implements Endpoint.
func (n *TCPNetwork) Self() ident.PID { return n.self }

// Conns reports the number of live outgoing peer connections — at most
// one per peer no matter how many groups are shared with it.
func (n *TCPNetwork) Conns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// Instrument makes ob's registry read Stats() whenever it is snapshotted
// (wireExport, and the drops as transport_dropped_total{reason=...}) and
// attaches the two batch-size histograms (tcp_batch_envelopes,
// transport_rx_batch_envelopes). Call it once per registry; it is safe
// while traffic is flowing, and core.NewNode calls it with the node's obs
// bundle.
func (n *TCPNetwork) Instrument(ob *obs.Obs) {
	n.batch.Store(ob.Histogram("tcp_batch_envelopes", obs.CountBuckets))
	n.rxBatch.Store(ob.Histogram("transport_rx_batch_envelopes", obs.CountBuckets))
	ob.AddSource(func(emit obs.Emit) {
		st := n.Stats()
		for _, row := range wireExport {
			emit(row.name, obs.KindCounter, row.get(&st))
		}
	})
	n.boxes.instrument(ob)
}

// Stats returns a snapshot of the wire counters.
func (n *TCPNetwork) Stats() TCPStats {
	return TCPStats{
		FramesSent:    n.framesSent.Load(),
		EnvelopesSent: n.envsSent.Load(),
		BytesSent:     n.bytesSent.Load(),
		FramesRecv:    n.framesRecv.Load(),
		EnvelopesRecv: n.envsRecv.Load(),
		Drops:         n.boxes.drops(),
	}
}

// Register implements Endpoint: create g's Data and Ctl inboxes.
func (n *TCPNetwork) Register(g ident.GroupID) { n.boxes.register(g) }

// Deregister implements Endpoint: remove and close every inbox of g.
// Subsequent traffic for g is dropped and counted.
func (n *TCPNetwork) Deregister(g ident.GroupID) { n.boxes.deregister(g) }

// Inbox implements Endpoint.
func (n *TCPNetwork) Inbox(g ident.GroupID, ch Channel) <-chan Envelope {
	return n.boxes.inbox(g, ch)
}

// InboxBatch implements Endpoint.
func (n *TCPNetwork) InboxBatch(g ident.GroupID, ch Channel) <-chan []Envelope {
	return n.boxes.inboxBatch(g, ch)
}

// Send implements Endpoint. A successful Send means the envelope is
// queued for the peer's writer; the actual write error, if any, surfaces
// as the peer's crash (connection drop), matching the crash-stop model.
func (n *TCPNetwork) Send(to ident.PID, g ident.GroupID, ch Channel, m any) error {
	if to == n.self {
		n.boxes.deposit(g, ch, Envelope{From: n.self, Group: g, Msg: m})
		return nil
	}
	pc, err := n.peer(to)
	if err != nil {
		return err
	}
	return n.enqueue(to, pc, g, ch, m)
}

// enqueue appends the encoded envelope to the peer's pending buffer and
// wakes its writer. Encoding happens here, synchronously, so unregistered
// types and oversized messages are reported to the caller; the write
// syscall happens in the writer, coalesced with whatever else is pending.
func (n *TCPNetwork) enqueue(to ident.PID, pc *peerConn, g ident.GroupID, ch Channel, m any) error {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return fmt.Errorf("transport: send to %s: %w", to, net.ErrClosed)
	}
	start := len(pc.pend)
	buf := codec.AppendUvarint(pc.pend, uint64(g))
	buf = codec.AppendByte(buf, byte(ch))
	buf, err := codec.Marshal(buf, m)
	if err != nil {
		pc.pend = buf[:start]
		pc.mu.Unlock()
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	if len(buf)-start > n.maxBody {
		pc.pend = buf[:start]
		pc.mu.Unlock()
		return fmt.Errorf("transport: send to %s: message %T (%d bytes) exceeds the %d-byte frame bound",
			to, m, len(buf)-start, n.frameCap)
	}
	pc.pend = buf
	pc.ends = append(pc.ends, len(buf))
	pc.cond.Signal()
	pc.mu.Unlock()
	return nil
}

// writeLoop drains pc.pend, coalescing everything pending into batch
// frames. The frame header, sender PID and body chunk go out in a single
// writev (net.Buffers), so a burst of envelopes costs one syscall — but a
// drained backlog larger than the frame bound is split at envelope boundaries so
// the receiver never sees an over-limit frame (enqueue guarantees every
// single envelope fits).
func (n *TCPNetwork) writeLoop(to ident.PID, pc *peerConn) {
	defer n.wg.Done()
	var spare, hdr []byte
	var spareEnds []int
	for {
		pc.mu.Lock()
		for len(pc.pend) == 0 && !pc.closed {
			pc.cond.Wait()
		}
		if len(pc.pend) == 0 && pc.closed {
			pc.mu.Unlock()
			return
		}
		body := pc.pend
		ends := pc.ends
		pc.pend = spare[:0]
		pc.ends = spareEnds[:0]
		pc.mu.Unlock()

		start, idx := 0, 0
		for start < len(body) {
			// Take as many whole envelopes as fit in one frame.
			end, count := start, 0
			for idx < len(ends) && ends[idx]-start <= n.maxBody {
				end = ends[idx]
				idx++
				count++
			}
			if end == start { // cannot happen: enqueue bounds each envelope
				end = ends[idx]
				idx++
				count++
			}
			chunk := body[start:end]
			start = end

			hdr = binary.AppendUvarint(hdr[:0], uint64(len(n.fromEnc)+len(chunk)))
			bufs := net.Buffers{hdr, n.fromEnc, chunk}
			total := len(hdr) + len(n.fromEnc) + len(chunk)
			if _, err := bufs.WriteTo(pc.conn); err != nil {
				n.dropPeer(to, pc)
				return
			}
			n.framesSent.Add(1)
			n.envsSent.Add(uint64(count))
			n.bytesSent.Add(uint64(total))
			n.batch.Load().Observe(float64(count))
		}

		// Reuse the drained buffers next round, but let one-off bursts go.
		if cap(body) <= 1<<20 {
			spare = body[:0]
		} else {
			spare = nil
		}
		if cap(ends) <= 1<<15 {
			spareEnds = ends[:0]
		} else {
			spareEnds = nil
		}
	}
}

// peer returns the (possibly newly dialed) connection to p.
func (n *TCPNetwork) peer(p ident.PID) (*peerConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if pc, ok := n.conns[p]; ok {
		n.mu.Unlock()
		return pc, nil
	}
	addr, ok := n.peers[p]
	n.mu.Unlock()
	if !ok {
		return nil, ErrUnknownPeer
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", p, addr, err)
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		conn.Close()
		return nil, ErrClosed
	}
	if pc, ok := n.conns[p]; ok { // lost the race, reuse the winner
		conn.Close()
		return pc, nil
	}
	pc := newPeerConn(conn)
	n.conns[p] = pc
	n.wg.Add(1)
	go n.writeLoop(p, pc)
	return pc, nil
}

func (n *TCPNetwork) dropPeer(p ident.PID, pc *peerConn) {
	pc.close()
	n.mu.Lock()
	if n.conns[p] == pc {
		delete(n.conns, p)
	}
	n.mu.Unlock()
}

func (n *TCPNetwork) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.accepted[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.readLoop(conn)
	}
}

func (n *TCPNetwork) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	var frame []byte
	var r codec.Reader
	// run accumulates consecutive envelopes of one (group, channel) so a
	// whole frame reaches the inbox demux in a few batched deposits — the
	// receive-side mirror of the writer's coalescing. The buffer is reused
	// across frames; depositBatch copies, so nothing here escapes.
	var run []Envelope
	var runG ident.GroupID
	var runCh Channel
	flushRun := func() {
		if len(run) > 0 {
			n.boxes.depositBatch(runG, runCh, run)
			run = run[:0]
		}
	}
	for {
		flen, err := binary.ReadUvarint(br)
		if err != nil {
			return // connection closed or peer crashed
		}
		if flen == 0 || flen > uint64(n.frameCap) {
			return // protocol violation: treat the peer as faulty
		}
		if uint64(cap(frame)) < flen {
			frame = make([]byte, flen)
		}
		frame = frame[:flen]
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		n.framesRecv.Add(1)
		r.Reset(frame)
		from := ident.PID(r.String())
		frameEnvs := 0
		for r.Len() > 0 && r.Err() == nil {
			gid := r.Uvarint()
			ch := Channel(r.Byte())
			// Decode the message even when the envelope will be dropped:
			// staying aligned with the stream is what lets one bad
			// envelope be discarded without dropping the whole peer.
			msg, err := codec.Unmarshal(&r)
			if err != nil {
				flushRun()
				return // mis-encoded or misaligned frame: drop the peer
			}
			n.envsRecv.Add(1)
			frameEnvs++
			if gid > math.MaxUint32 {
				// A group id beyond GroupID's range can never be hosted;
				// count it as unknown rather than letting the uint32
				// conversion alias it into a real group's inbox.
				n.boxes.dropUnknownGroup()
				continue
			}
			g := ident.GroupID(gid)
			if len(run) > 0 && (g != runG || ch != runCh) {
				flushRun()
			}
			runG, runCh = g, ch
			run = append(run, Envelope{From: from, Group: g, Msg: msg})
		}
		// Flush at every frame boundary: the frame buffer is reused for
		// the next frame, and decoded messages must not outlive deposit
		// batching by more than one frame anyway (latency).
		flushRun()
		if frameEnvs > 0 {
			n.rxBatch.Load().Observe(float64(frameEnvs))
		}
		if r.Err() != nil {
			return
		}
		// Reuse the frame buffer, but don't pin a one-off large frame for
		// the connection's lifetime.
		if cap(frame) > 1<<20 {
			frame = nil
		}
		// Don't pin a one-off burst's worth of envelope headers either.
		if cap(run) > 1<<12 {
			run = nil
		}
	}
}

// Close implements Endpoint: crash-stop shutdown. Envelopes still queued
// for peers are dropped, no envelope is delivered locally after Close
// returns, and concurrent or repeated Close calls all block until the
// shutdown completes.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		done := n.closeDone
		n.mu.Unlock()
		<-done // wait for the first closer to finish
		return nil
	}
	n.closed = true
	conns := make([]*peerConn, 0, len(n.conns))
	for _, pc := range n.conns {
		conns = append(conns, pc)
	}
	n.conns = make(map[ident.PID]*peerConn)
	accepted := make([]net.Conn, 0, len(n.accepted))
	for c := range n.accepted {
		accepted = append(accepted, c)
	}
	n.mu.Unlock()

	n.ln.Close()
	for _, pc := range conns {
		pc.close()
	}
	for _, c := range accepted {
		c.Close()
	}
	n.wg.Wait()
	n.boxes.close()
	close(n.closeDone)
	return nil
}
