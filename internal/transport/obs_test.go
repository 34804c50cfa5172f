package transport

import (
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
)

// waitCounter polls reg until the named counter reaches want.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := reg.Snapshot().Counters[name]; got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %s = %d, want >= %d (all: %v)",
				name, reg.Snapshot().Counters[name], want, reg.Snapshot().Counters)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMemEndpointDropMetrics(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	reg := obs.NewRegistry()
	b.Instrument(obs.New(nil, reg, nil))

	// Traffic for a group b never registered is dropped and counted.
	if err := a.Send("b", 99, Data, tcpPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	// Traffic on an undefined channel likewise, under its own reason.
	if err := a.Send("b", 99, Channel(200), tcpPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, reg, "transport_dropped_total{reason=unknown_group}", 1)
	waitCounter(t, reg, "transport_dropped_total{reason=unknown_channel}", 1)
	if d := b.Drops(); d.DroppedUnknownGroup != 1 || d.DroppedUnknownChannel != 1 {
		t.Fatalf("DropStats = %+v, want 1/1", d)
	}
}

func TestTCPWireMetrics(t *testing.T) {
	regA := obs.NewRegistry()
	regB := obs.NewRegistry()
	a, b := tcpPair(t)
	const g = ident.GroupID(3)
	b.Register(g)
	inbox := b.Inbox(g, Data)

	// One envelope first, so a's write loop and b's read loop are running
	// when the registries are attached: under -race this checks that the
	// loops pick the histograms up safely.
	if err := a.Send("b", g, Data, tcpPayload{N: -1}); err != nil {
		t.Fatal(err)
	}
	<-inbox
	a.Instrument(obs.New(nil, regA, nil))
	b.Instrument(obs.New(nil, regB, nil))

	const msgs = 5
	for i := 0; i < msgs; i++ {
		if err := a.Send("b", g, Data, tcpPayload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		<-inbox
	}

	waitCounter(t, regA, "tcp_envelopes_sent_total", msgs)
	waitCounter(t, regA, "tcp_frames_sent_total", 1)
	waitCounter(t, regB, "tcp_envelopes_recv_total", msgs)
	waitCounter(t, regB, "tcp_frames_recv_total", 1)

	snapA := regA.Snapshot()
	if snapA.Counters["tcp_bytes_sent_total"] == 0 {
		t.Fatal("tcp_bytes_sent_total stayed zero")
	}
	if h := snapA.Histograms["tcp_batch_envelopes"]; h.Count == 0 {
		t.Fatal("no batch-size samples")
	}
	// The registry reads Stats(): every row of the export tables is in the
	// snapshot and says what the facade says (nothing is in flight).
	st := a.Stats()
	for _, row := range wireExport {
		if got, ok := snapA.Counters[row.name]; !ok || got != row.get(&st) {
			t.Errorf("%s = %d (present %v), Stats says %d", row.name, got, ok, row.get(&st))
		}
	}
	for _, row := range dropExport {
		key := "transport_dropped_total{reason=" + string(row.reason) + "}"
		if got, ok := snapA.Counters[key]; !ok || got != row.get(&st.Drops) {
			t.Errorf("%s = %d (present %v), Drops says %d", key, got, ok, row.get(&st.Drops))
		}
	}

	// An envelope for an unregistered group is dropped and counted at the
	// receiver under the unknown_group reason.
	if err := a.Send("b", 77, Data, tcpPayload{N: 9}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, regB, "transport_dropped_total{reason=unknown_group}", 1)
}
