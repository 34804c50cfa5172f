package transport

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ident"
)

// TestTCPNetworkReconnectAfterRestart is the crash-restart regression
// test: a peer that dies mid-stream and comes back on the same address
// must get a fresh connection pair — the sender's send path re-dials
// instead of wedging on the dead connection's queue. Messages in flight
// around the crash are lost (crash-stop), but delivery must resume.
func TestTCPNetworkReconnectAfterRestart(t *testing.T) {
	a, err := NewTCPNetwork("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := NewTCPNetwork("b", "127.0.0.1:0", map[ident.PID]string{"a": a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	a.AddPeer("b", addr)

	// Stream until b1 has demonstrably received traffic.
	in1 := b1.Inbox(ident.NodeGroup, Data)
	seq := 0
	send := func() {
		seq++
		// Errors are expected around the crash window: the send path
		// reports the broken connection and re-dials on the next call.
		_ = a.Send("b", ident.NodeGroup, Data, tcpPayload{N: seq})
	}
	send()
	if env := recvOne(t, in1); env.Msg.(tcpPayload).N != 1 {
		t.Fatalf("got %+v", env)
	}

	// Crash b mid-stream and restart it on the same address.
	b1.Close()
	var b2 *TCPNetwork
	deadline := time.Now().Add(5 * time.Second)
	for {
		b2, err = NewTCPNetwork("b", addr, map[ident.PID]string{"a": a.Addr()})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer b2.Close()

	// Keep sending: the first write on the dead connection fails, the
	// sender drops it, and the next Send dials the restarted listener.
	in2 := b2.Inbox(ident.NodeGroup, Data)
	resumeDeadline := time.Now().Add(5 * time.Second)
	for {
		send()
		select {
		case env, ok := <-in2:
			if !ok {
				t.Fatal("restarted inbox closed")
			}
			got := env.Msg.(tcpPayload).N
			if got <= 1 {
				t.Fatalf("stale message %d after restart", got)
			}
			// Delivery resumed on a fresh connection pair.
			if c := a.Conns(); c != 1 {
				t.Fatalf("sender has %d live conns, want 1", c)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(resumeDeadline) {
			t.Fatal("delivery did not resume after restart")
		}
	}
}

// TestTCPNetworkRestartedPeerFIFO: after the reconnect, the stream stays
// FIFO on the fresh connection.
func TestTCPNetworkRestartedPeerFIFO(t *testing.T) {
	a, err := NewTCPNetwork("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := NewTCPNetwork("b", "127.0.0.1:0", map[ident.PID]string{"a": a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	a.AddPeer("b", addr)
	b1.Close()

	var b2 *TCPNetwork
	deadline := time.Now().Add(5 * time.Second)
	for {
		b2, err = NewTCPNetwork("b", addr, nil)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer b2.Close()

	// Wait for a working connection, then verify a burst stays ordered.
	in := b2.Inbox(ident.NodeGroup, Data)
	sync := 0
	for {
		sync++
		_ = a.Send("b", ident.NodeGroup, Data, tcpPayload{N: 0, S: "sync"})
		select {
		case <-in:
		case <-time.After(20 * time.Millisecond):
			if sync > 250 {
				t.Fatal("no connection to restarted peer")
			}
			continue
		}
		break
	}
	const count = 100
	for i := 1; i <= count; i++ {
		if err := a.Send("b", ident.NodeGroup, Data, tcpPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	want := 1
	drain := time.After(5 * time.Second)
	for want <= count {
		select {
		case env := <-in:
			p := env.Msg.(tcpPayload)
			if p.S == "sync" {
				continue // stragglers from the handshake loop
			}
			if p.N != want {
				t.Fatal(fmt.Sprintf("out of order: got %d want %d", p.N, want))
			}
			want++
		case <-drain:
			t.Fatalf("stalled at %d/%d", want-1, count)
		}
	}
}
