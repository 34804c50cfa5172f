package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// roundTrip marshals m through the registry and requires the decoded
// value to be deeply equal — including nil vs empty distinctions that
// gob papered over.
func roundTrip(t *testing.T, m any) {
	t.Helper()
	b, err := codec.Marshal(nil, m)
	if err != nil {
		t.Fatalf("marshal %#v: %v", m, err)
	}
	out, err := codec.UnmarshalBytes(b)
	if err != nil {
		t.Fatalf("unmarshal %#v: %v", m, err)
	}
	if !reflect.DeepEqual(out, m) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", out, m)
	}
}

// TestCodecWireRoundTripEdgeCases pins the edge cases of every core wire
// type: nil payloads, empty pred sets, zero-member views, nil vs empty
// everywhere.
func TestCodecWireRoundTripEdgeCases(t *testing.T) {
	dm := DataMsg{View: 4, Epoch: 2, Meta: obsolete.Msg{Sender: "q", Seq: 7, Annot: []byte{1}}, Payload: []byte("x")}
	cases := []any{
		DataMsg{},
		DataMsg{View: 3, Meta: obsolete.Msg{Sender: "p", Seq: 1}, Payload: nil},
		DataMsg{View: 3, Meta: obsolete.Msg{Sender: "p", Seq: 2, Annot: []byte{}}, Payload: []byte{}},
		InitMsg{},
		InitMsg{View: View{ID: 9}, Leave: []ident.PID{}},
		InitMsg{View: View{ID: 9}, Leave: []ident.PID{"a", "b"}},
		InitMsg{View: View{ID: 1, Members: []ident.PID{"a"}}, Far: &View{ID: 4, Epoch: 7, Members: []ident.PID{}}},
		InitMsg{View: View{Members: []ident.PID{}}, Far: &View{}},
		PredMsg{},
		PredMsg{Change: ident.ViewRef{ID: 5}, Msgs: []DataMsg{}},
		PredMsg{Change: ident.ViewRef{ID: 5}, Msgs: []DataMsg{{View: 4, Meta: obsolete.Msg{Sender: "q", Seq: 7, Annot: []byte{1}}, Payload: []byte("x")}}},
		PredMsg{Change: ident.ViewRef{Epoch: 5, ID: 2}, Decline: true},
		PredMsg{Change: ident.ViewRef{ID: 2}, Msgs: []DataMsg{}, Recv: map[ident.PID]ident.Seq{}},
		PredMsg{Change: ident.ViewRef{ID: 2}, Msgs: []DataMsg{dm}, Recv: map[ident.PID]ident.Seq{"q": 7}},
		CreditMsg{},
		CreditMsg{View: 2, Credits: -3},
		CreditMsg{View: 2, Credits: 1 << 30},
		StableMsg{},
		StableMsg{View: 5, Recv: map[ident.PID]ident.Seq{}},
		StableMsg{View: 5, Recv: map[ident.PID]ident.Seq{"a": 1, "b": 99}},
		&DataBatchMsg{},
		&DataBatchMsg{Msgs: []DataMsg{}},
		&DataBatchMsg{Msgs: []DataMsg{dm, {}}},
		JoinReqMsg{},
		StateMsg{},
		StateMsg{View: View{ID: 2, Members: []ident.PID{"solo"}}},
		StateMsg{View: View{ID: 3, Members: []ident.PID{}}, Recv: map[ident.PID]ident.Seq{}, Backlog: []DataMsg{}},
		StateMsg{View: View{ID: 3, Epoch: 9, Members: []ident.PID{"a", "q"}}, Recv: map[ident.PID]ident.Seq{"q": 7}, Backlog: []DataMsg{dm}},
		ProbeMsg{},
		ProbeMsg{View: View{ID: 6, Epoch: 1 << 40, Members: []ident.PID{}}},
		ProbeMsg{View: View{ID: 6, Members: []ident.PID{"a", "b"}}},
		SplitMsg{},
		SplitMsg{View: View{ID: 2, Epoch: 3, Members: []ident.PID{"a"}}},
	}
	for _, m := range cases {
		roundTrip(t, m)
	}
}

// FuzzCodecRoundTrip builds every core wire type from fuzzed fields and
// asserts decode(encode(x)) == x exactly.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add("p1", uint64(1), uint64(1), []byte{1, 2}, []byte("payload"), "p2", int64(3), false)
	f.Add("", uint64(0), uint64(0), []byte(nil), []byte(nil), "", int64(0), true)
	f.Add("sender/with/slash", uint64(1<<40), uint64(1<<50), []byte{}, []byte{}, "x", int64(-1), false)
	f.Fuzz(func(t *testing.T, sender string, view, seq uint64, annot, payload []byte, peer string, credits int64, nils bool) {
		meta := obsolete.Msg{Sender: ident.PID(sender), Seq: ident.Seq(seq), Annot: annot}
		dm := DataMsg{View: ident.ViewID(view), Meta: meta, Payload: payload}
		roundTrip(t, dm)

		init := InitMsg{View: View{ID: ident.ViewID(view)}}
		pred := PredMsg{Change: ident.ViewRef{Epoch: ident.Epoch(seq), ID: ident.ViewID(view)}, Decline: nils}
		stable := StableMsg{View: ident.ViewID(view)}
		if !nils {
			init.Leave = []ident.PID{ident.PID(peer), ident.PID(sender)}
			pred.Msgs = []DataMsg{dm, {View: dm.View}}
			stable.Recv = map[ident.PID]ident.Seq{
				ident.PID(sender): ident.Seq(seq),
				ident.PID(peer):   ident.Seq(view),
			}
			pred.Recv = stable.Recv
		}
		roundTrip(t, init)
		roundTrip(t, pred)
		roundTrip(t, stable)
		roundTrip(t, CreditMsg{View: ident.ViewID(view), Credits: int(credits)})
		roundTrip(t, &DataBatchMsg{Msgs: pred.Msgs})
		roundTrip(t, JoinReqMsg{})
		roundTrip(t, StateMsg{View: View{ID: ident.ViewID(view), Epoch: ident.Epoch(seq), Members: init.Leave}, Recv: stable.Recv, Backlog: pred.Msgs})
		side := View{ID: ident.ViewID(view), Epoch: ident.Epoch(seq), Members: init.Leave}
		roundTrip(t, ProbeMsg{side})
		roundTrip(t, SplitMsg{side})
		roundTrip(t, InitMsg{View: View{ID: ident.ViewID(seq), Members: init.Join}, Far: &side})
	})
}

// FuzzDecodeValueNoPanic hardens the decided-value door (decodeState) against
// arbitrary bytes arriving from a faulty peer.
func FuzzDecodeValueNoPanic(f *testing.F) {
	good, err := codec.Marshal(nil, StateMsg{
		View:    View{ID: 2, Members: []ident.PID{"a", "b"}},
		Backlog: []DataMsg{{View: 1, Meta: obsolete.Msg{Sender: "a", Seq: 1}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("not gob"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeState(data)
	})
}

// wireCorpus is one message of every core wire type, encoded: the fuzz
// targets' seeds.
func wireCorpus(f *testing.F) [][]byte {
	dm := DataMsg{View: 4, Epoch: 1, Meta: obsolete.Msg{Sender: "a", Seq: 3, Annot: []byte{5}}, Payload: []byte("p")}
	recv := map[ident.PID]ident.Seq{"a": 3, "b": 1}
	side := View{ID: 4, Epoch: 1, Members: []ident.PID{"a", "b"}}
	var out [][]byte
	for _, m := range []any{
		dm,
		InitMsg{View: View{ID: 4}, Leave: []ident.PID{"b"}, Join: []ident.PID{"c"}},
		PredMsg{Change: ident.ViewRef{Epoch: 1, ID: 5}, Msgs: []DataMsg{dm}},
		CreditMsg{View: 4, Credits: 8},
		StableMsg{View: 4, Recv: recv},
		JoinReqMsg{},
		StateMsg{View: View{ID: 4, Members: side.Members}, Recv: recv, Backlog: []DataMsg{dm}},
		&DataBatchMsg{Msgs: []DataMsg{dm, dm}},
		ProbeMsg{side},
		SplitMsg{side},
		InitMsg{View: side, Far: &View{ID: 2, Epoch: 9, Members: []ident.PID{"c"}}},
		PredMsg{Change: side.Ref(), Decline: true},
	} {
		b, err := codec.Marshal(nil, m)
		if err != nil {
			f.Fatalf("seed %T: %v", m, err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzWireDecodeNoPanic feeds arbitrary bytes to the registry decoder with
// every core wire type registered, seeded with one encoding of each. No
// input may panic it; whatever it accepts must encode again and decode to
// the same value.
func FuzzWireDecodeNoPanic(f *testing.F) {
	for _, b := range wireCorpus(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := codec.UnmarshalBytes(data)
		if err != nil {
			return
		}
		b, err := codec.Marshal(nil, v)
		if err != nil {
			t.Fatalf("decoded %#v does not encode: %v", v, err)
		}
		again, err := codec.UnmarshalBytes(b)
		if err != nil || !reflect.DeepEqual(again, v) {
			t.Fatalf("decoded %#v, re-encoded and decoded %#v (%v)", v, again, err)
		}
	})
}

// TestDecodeBoundsHostileCounts: a PredMsg claiming ~1M entries whose
// element data is garbage must fail cheaply. The count passes the
// codec's byte-level bound (1M bytes follow it), so without a capacity
// clamp the decoder would pre-allocate count × sizeof(DataMsg) ≈ 80 MB
// before looking at a single element.
func TestDecodeBoundsHostileCounts(t *testing.T) {
	const claimed = 1 << 20
	hostile := codec.AppendByte(nil, byte(codec.TPredMsg))
	hostile = codec.AppendUvarint(hostile, 1)         // change: view
	hostile = codec.AppendUvarint(hostile, 0)         // change: epoch
	hostile = codec.AppendUvarint(hostile, claimed+1) // claims 1M DataMsgs
	// 1 MiB of 0xFF: satisfies the byte bound, but the first element's
	// view field is an over-long varint, so decoding fails immediately.
	filler := make([]byte, claimed)
	for i := range filler {
		filler[i] = 0xFF
	}
	hostile = append(hostile, filler...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := codec.UnmarshalBytes(hostile); err == nil {
		t.Fatal("hostile count accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 10<<20 {
		t.Fatalf("hostile count drove %d bytes of allocation", grew)
	}
}

// FuzzStep steps arbitrary peer input into p0 of a three-member group —
// open, blocked in a change, or joining — as the engine's loop does: each
// input is one turn (a step, then endTurn). An input is whatever the codec decodes from
// the fuzzed bytes (a control message, a consensus.Msg or data), stepped
// as a control or consensus envelope or as a data batch, from a member or
// a stranger, 1 to 5,000 times; how's bit 4 gives every repetition a fresh
// stranger, in whose name a DataMsg then comes, and a fresh consensus
// instance. No input may panic the value or grow what it keeps past a
// bound: the stash, the parked admissions, the pending data arrivals (two
// windows per sender: the current view's credits and a later view's; and
// strangerWindows windows of strangers' on top of the members') and its
// consensus machine's caps.
func FuzzStep(f *testing.F) {
	for _, b := range wireCorpus(f) {
		f.Add(uint8(0), uint8(0), uint16(0), b)
	}
	for _, m := range []consensus.Msg{
		{Instance: viewInstance(ident.ViewRef{ID: 5}), Value: []byte("v")},
		{Instance: "x", Round: 7},
	} {
		b, err := codec.Marshal(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(1), uint8(4), uint16(300), b)
	}
	// A joiner deferring 4,096 PREDs for its first view: a full stash.
	pred, err := codec.Marshal(nil, PredMsg{Change: ident.ViewRef{ID: 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(2), uint8(0), uint16(maxDeferredCtl-1), pred)
	// A joiner sent a later view's data in the names of 5,000 processes.
	data, err := codec.Marshal(nil, DataMsg{View: 5, Meta: obsolete.Msg{Sender: "x", Seq: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(2), uint8(6), uint16(4999), data)
	det := fd.NewManual()
	f.Cleanup(det.Stop)
	members := ident.NewPIDs("p0", "p1", "p2")
	f.Fuzz(func(t *testing.T, state, how uint8, repeat uint16, raw []byte) {
		v, err := codec.UnmarshalBytes(raw)
		if err != nil {
			return
		}
		e := &Engine{cfg: config{Self: "p0", Endpoint: &sendLog{discard: true}, Detector: det,
			GroupConfig: GroupConfig{Relation: tagging, ToDeliverCap: 64, Window: 8, OutgoingCap: 8}}}
		view := View{ID: 4, Members: members}
		if state%3 == 2 {
			e.cfg.Join, view = &JoinSpec{Contacts: ident.NewPIDs("p1")}, View{}
		}
		e.vc = newViewState(&e.cfg, view, e.cfg.Endpoint)
		m := consensus.NewMachine("p0", func(ident.PID, consensus.Msg) {}, det, nil)
		s := &e.vc
		s.cons = m
		input(e, event{msg: tick{}})
		if state%3 == 1 {
			input(e, event{from: "p1", msg: InitMsg{View: View{ID: 4}}})
		}
		s.endTurn()
		if (s.chg != nil) != (state%3 == 1) || s.joining != (state%3 == 2) {
			t.Fatalf("state %d: blocked %v, joining %v", state%3, s.chg != nil, s.joining)
		}
		for i := 0; i <= int(repeat%5000); i++ {
			from, msg := ident.PID("p1"), v
			if how&1 != 0 {
				from = "x"
			}
			if how&4 != 0 {
				from = ident.PID(fmt.Sprintf("x%d", i))
				switch m := msg.(type) {
				case consensus.Msg:
					m.Instance += string(from)
					msg = m
				case DataMsg:
					m.Meta.Sender = from
					msg = m
				}
			}
			if how&2 == 0 {
				input(e, event{from: from, msg: msg})
			} else {
				input(e, event{data: []transport.Envelope{{From: from, Msg: msg}}})
			}
			s.endTurn()
		}
		unproposed, buffered := m.Backlog()
		perSender := map[ident.PID]int{}
		for _, dm := range s.pending {
			if perSender[dm.Meta.Sender]++; perSender[dm.Meta.Sender] > 2*s.cfg.Window {
				t.Fatalf("%d arrivals from %s pending, bound %d", perSender[dm.Meta.Sender], dm.Meta.Sender, 2*s.cfg.Window)
			}
		}
		switch {
		case len(s.pending) > (strangerWindows+2*len(members))*s.cfg.Window:
			t.Fatalf("%d arrivals pending, bound %d", len(s.pending), (strangerWindows+2*len(members))*s.cfg.Window)
		case len(s.stash) > maxDeferredCtl:
			t.Fatalf("%d messages stashed, bound %d", len(s.stash), maxDeferredCtl)
		case len(s.joins) > maxPendingJoins:
			t.Fatalf("%d admissions parked, bound %d", len(s.joins), maxPendingJoins)
		case unproposed > consensus.MaxUnproposed || buffered > consensus.MaxBuffered:
			t.Fatalf("the machine keeps %d instances it never proposed to and buffers %d messages in one, bounds %d and %d",
				unproposed, buffered, consensus.MaxUnproposed, consensus.MaxBuffered)
		}
	})
}
