package transport

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/ident"
)

// The tests in this file pin the crash-stop close contract of every
// endpoint implementation: Close is safe under double/concurrent close
// and concurrent Send, and no envelope is delivered after Close returns.

func TestMemEndpointDoubleClose(t *testing.T) {
	n := NewMemNetwork()
	ep, err := n.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ep.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := ep.Send("p", ident.NodeGroup, Data, 1); err == nil {
		t.Fatal("send after close should fail")
	}
}

// TestMemEndpointNoDeliveryAfterClose hammers a receiver with sends while
// it closes; once Close has returned, its inboxes must be silent.
func TestMemEndpointNoDeliveryAfterClose(t *testing.T) {
	n := NewMemNetwork()
	rcv, err := n.Endpoint("rcv")
	if err != nil {
		t.Fatal(err)
	}
	snd, err := n.Endpoint("snd")
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	in := rcv.Inbox(ident.NodeGroup, Data)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = snd.Send("rcv", ident.NodeGroup, Data, 1)
				}
			}
		}()
	}

	time.Sleep(5 * time.Millisecond) // let traffic flow
	if err := rcv.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close returned the inbox's forwarding goroutine has exited: the
	// only thing left to observe on the inbox is its closure.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-in:
			if !ok {
				close(stop)
				wg.Wait()
				return
			}
			t.Fatal("envelope delivered after Close returned")
		case <-deadline:
			t.Fatal("inbox never closed")
		}
	}
}

func TestTCPNetworkConcurrentClose(t *testing.T) {
	a, err := NewTCPNetwork("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestTCPNetworkSendDuringClose closes an endpoint while senders hammer
// it from both sides: no panic, sends eventually fail, and the receiver's
// inboxes are silent after Close returns.
func TestTCPNetworkSendDuringClose(t *testing.T) {
	a, b := tcpPair(t)
	in := a.Inbox(ident.NodeGroup, Data)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = b.Send("a", ident.NodeGroup, Data, tcpPayload{N: 1})
					_ = a.Send("b", ident.NodeGroup, Data, tcpPayload{N: 2})
				}
			}
		}()
	}

	time.Sleep(5 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-in:
			if !ok {
				close(stop)
				wg.Wait()
				if err := a.Send("b", ident.NodeGroup, Data, tcpPayload{}); err == nil {
					t.Fatal("send on closed endpoint should fail")
				}
				return
			}
			t.Fatal("envelope delivered after Close returned")
		case <-deadline:
			t.Fatal("inbox never closed")
		}
	}
}

// pipeNetwork builds a bare TCPNetwork and peerConn over a synchronous
// net.Pipe for deterministic white-box tests of the batch writer.
func pipeNetwork(frameCap int) (*TCPNetwork, *peerConn, net.Conn) {
	c1, c2 := net.Pipe()
	n := &TCPNetwork{
		self:      "a",
		frameCap:  frameCap,
		fromEnc:   codec.AppendString(nil, "a"),
		closeDone: make(chan struct{}),
		conns:     make(map[ident.PID]*peerConn),
	}
	n.maxBody = frameCap - len(n.fromEnc)
	pc := newPeerConn(c1)
	return n, pc, c2
}

// readFrames decodes frames off raw until count envelopes arrived,
// returning per-frame envelope payloads.
func readFrames(t *testing.T, raw net.Conn, frameCap, count int) [][]tcpPayload {
	t.Helper()
	br := bufio.NewReader(raw)
	var frames [][]tcpPayload
	total := 0
	for total < count {
		flen, err := binary.ReadUvarint(br)
		if err != nil {
			t.Fatal(err)
		}
		if flen > uint64(frameCap) {
			t.Fatalf("frame of %d bytes exceeds the frame bound %d", flen, frameCap)
		}
		frame := make([]byte, flen)
		if _, err := io.ReadFull(br, frame); err != nil {
			t.Fatal(err)
		}
		r := codec.NewReader(frame)
		if from := r.String(); from != "a" {
			t.Fatalf("frame sender = %q, want a", from)
		}
		var envs []tcpPayload
		for r.Len() > 0 {
			if g := ident.GroupID(r.Uvarint()); g != ident.NodeGroup {
				t.Fatalf("group = %d, want %d", g, ident.NodeGroup)
			}
			if ch := Channel(r.Byte()); ch != Data {
				t.Fatalf("channel = %d, want %d", ch, Data)
			}
			msg, err := codec.Unmarshal(r)
			if err != nil {
				t.Fatal(err)
			}
			envs = append(envs, msg.(tcpPayload))
			total++
		}
		frames = append(frames, envs)
	}
	return frames
}

// TestWriteLoopCoalescesBacklog drives the batch writer deterministically:
// envelopes enqueued before the writer starts must leave in one frame.
func TestWriteLoopCoalescesBacklog(t *testing.T) {
	n, pc, raw := pipeNetwork(maxFrame)
	defer raw.Close()

	const count = 50
	for i := 0; i < count; i++ {
		if err := n.enqueue("b", pc, ident.NodeGroup, Data, tcpPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	n.wg.Add(1)
	go n.writeLoop("b", pc)
	defer func() {
		pc.close()
		n.wg.Wait()
	}()

	frames := readFrames(t, raw, maxFrame, count)
	if len(frames) != 1 {
		t.Fatalf("backlog left in %d frames, want 1", len(frames))
	}
	for i, p := range frames[0] {
		if p.N != i {
			t.Fatalf("envelope %d out of order: %+v", i, p)
		}
	}
}

// TestWriteLoopChunksAtMaxFrame: a drained backlog larger than the frame bound
// must be split at envelope boundaries, never exceeding the frame limit
// the receiver enforces.
func TestWriteLoopChunksAtMaxFrame(t *testing.T) {
	const frameCap = 256
	n, pc, raw := pipeNetwork(frameCap)
	defer raw.Close()

	payload := string(make([]byte, 40)) // ~45 B per envelope encoded
	const count = 40                    // ~1.8 KiB backlog >> 256 B frames
	for i := 0; i < count; i++ {
		if err := n.enqueue("b", pc, ident.NodeGroup, Data, tcpPayload{N: i, S: payload}); err != nil {
			t.Fatal(err)
		}
	}
	n.wg.Add(1)
	go n.writeLoop("b", pc)
	defer func() {
		pc.close()
		n.wg.Wait()
	}()

	frames := readFrames(t, raw, frameCap, count)
	if len(frames) < 2 {
		t.Fatalf("oversized backlog left in %d frames, want several", len(frames))
	}
	seen := 0
	for _, envs := range frames {
		for _, p := range envs {
			if p.N != seen {
				t.Fatalf("envelope %d out of order: %+v", seen, p)
			}
			seen++
		}
	}
	if seen != count {
		t.Fatalf("got %d envelopes, want %d", seen, count)
	}
}

// TestSendRejectsOversizedMessage: a single message that cannot fit any
// frame is refused synchronously instead of poisoning the connection.
func TestSendRejectsOversizedMessage(t *testing.T) {
	a, b := tcpPairCap(t, 128)
	big := tcpPayload{S: string(make([]byte, 4096))}
	if err := a.Send("b", ident.NodeGroup, Data, big); err == nil {
		t.Fatal("oversized message accepted")
	}
	// The connection survives and small messages still flow.
	if err := a.Send("b", ident.NodeGroup, Data, tcpPayload{N: 5}); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, b.Inbox(ident.NodeGroup, Data)); env.Msg.(tcpPayload).N != 5 {
		t.Fatalf("got %+v", env)
	}
}

// TestReadLoopDropsBogusChannel: a well-formed envelope carrying an
// undefined channel byte is dropped and counted; it neither creates an
// orphan inbox nothing consumes nor kills the connection the sender's
// legitimate groups share.
func TestReadLoopDropsBogusChannel(t *testing.T) {
	a, err := NewTCPNetwork("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Register(ident.NodeGroup)

	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A well-formed frame: one envelope naming channel 77, then a valid
	// envelope on the node group's Data channel.
	body := codec.AppendString(nil, "peer")
	body = codec.AppendUvarint(body, uint64(ident.NodeGroup))
	body = codec.AppendByte(body, 77)
	body, err = codec.Marshal(body, tcpPayload{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	body = codec.AppendUvarint(body, uint64(ident.NodeGroup))
	body = codec.AppendByte(body, byte(Data))
	body, err = codec.Marshal(body, tcpPayload{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.AppendUvarint(nil, uint64(len(body)))
	frame = append(frame, body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}

	// The valid envelope still arrives — the connection survived.
	if env := recvOne(t, a.Inbox(ident.NodeGroup, Data)); env.Msg.(tcpPayload).N != 2 {
		t.Fatalf("got %+v", env)
	}
	if st := a.Stats(); st.Drops.DroppedUnknownChannel != 1 {
		t.Fatalf("drops = %+v, want 1 unknown-channel", st.Drops)
	}
	a.boxes.mu.Lock()
	_, orphan := a.boxes.m[groupChan{ident.NodeGroup, Channel(77)}]
	a.boxes.mu.Unlock()
	if orphan {
		t.Fatal("orphan inbox created for bogus channel")
	}
}

// TestReadLoopDropsOversizedGroupID: a wire group id beyond GroupID's
// 32-bit range must be dropped and counted as unknown — never truncated
// into a hosted group's inbox (2^32+1 would alias to group 1) — and the
// connection survives for the envelopes that follow.
func TestReadLoopDropsOversizedGroupID(t *testing.T) {
	a, err := NewTCPNetwork("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Register(1)

	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One envelope whose group id truncates to hosted group 1, then a
	// valid envelope for group 1.
	body := codec.AppendString(nil, "peer")
	body = codec.AppendUvarint(body, (1<<32)+1)
	body = codec.AppendByte(body, byte(Data))
	body, err = codec.Marshal(body, tcpPayload{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	body = codec.AppendUvarint(body, 1)
	body = codec.AppendByte(body, byte(Data))
	body, err = codec.Marshal(body, tcpPayload{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.AppendUvarint(nil, uint64(len(body)))
	frame = append(frame, body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}

	// Only the valid envelope arrives; the oversized id was counted as
	// an unknown group, not aliased into group 1.
	if env := recvOne(t, a.Inbox(1, Data)); env.Msg.(tcpPayload).N != 2 {
		t.Fatalf("got %+v, want the group-1 envelope", env)
	}
	if st := a.Stats(); st.Drops.DroppedUnknownGroup != 1 {
		t.Fatalf("drops = %+v, want 1 unknown-group", st.Drops)
	}
}

// TestReadLoopRejectsUndecodableEnvelope: an envelope whose message
// cannot be decoded leaves the rest of the stream unparseable — that is
// still a protocol violation and drops the connection.
func TestReadLoopRejectsUndecodableEnvelope(t *testing.T) {
	a, err := NewTCPNetwork("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := codec.AppendString(nil, "evil")
	body = codec.AppendUvarint(body, uint64(ident.NodeGroup))
	body = codec.AppendByte(body, byte(Data))
	body = codec.AppendByte(body, 0xEE) // unregistered TypeID
	frame := binary.AppendUvarint(nil, uint64(len(body)))
	frame = append(frame, body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("undecodable envelope not rejected")
	}
}
