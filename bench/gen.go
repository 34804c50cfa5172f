package main

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/trace"
)

// Every benchmark message carries a fixed 64-byte payload:
//
//	[0:8]   send timestamp, ns since the run's time base — stamped at the
//	        instant the generator calls MulticastBatch
//	[8:16]  the sender's sequence number (integrity check at delivery)
//	[16]    message kind (msgMarker, or a trace.EventKind)
//	[17:21] item id
const (
	payloadLen = 64
	// kWindow is the k-enumeration window of the game relation: twice the
	// 1024-message buffers, the paper's k = 2 x buffer rule (§5.2).
	kWindow = 2048
	// msgMarker is a harness message (hello, final sentinel): reliable, no
	// item.
	msgMarker = 0
)

// sentMsg is the sender-side record the correctness oracle replays: what
// kind of message each sequence number was and which item it touched.
type sentMsg struct {
	item uint32
	kind uint8
}

// stream turns the generated game session into the message stream one
// sender multicasts, looping over the session for as long as the run lasts.
// With the game relation every message is annotated through an
// ItemTracker over a KTracker exactly as an application would; with the
// reliable relation annotations are empty. The program under test sees
// only what stream mints.
type stream struct {
	self   ident.PID
	events []trace.Event
	pos    int
	it     *obsolete.ItemTracker // nil: reliable stream, no annotations
	seq    ident.Seq
	log    []sentMsg // log[seq-1] describes message seq
}

func newStream(self ident.PID, tr *trace.Trace, game bool, expect int) *stream {
	s := &stream{self: self, events: tr.Events, log: make([]sentMsg, 0, expect)}
	if game {
		s.it = obsolete.NewItemTracker(obsolete.NewKTracker(kWindow))
	}
	return s
}

// next mints the metadata of the next session message.
func (s *stream) next() (obsolete.Msg, sentMsg) {
	ev := s.events[s.pos]
	if s.pos++; s.pos == len(s.events) {
		s.pos = 0
	}
	rec := sentMsg{item: ev.Item, kind: uint8(ev.Kind)}
	return s.mint(rec), rec
}

// marker mints a reliable harness message outside the session.
func (s *stream) marker() (obsolete.Msg, sentMsg) {
	rec := sentMsg{kind: msgMarker}
	return s.mint(rec), rec
}

func (s *stream) mint(rec sentMsg) obsolete.Msg {
	var annot []byte
	if s.it == nil {
		s.seq++
	} else {
		switch trace.EventKind(rec.kind) {
		case trace.Create:
			s.seq, annot = s.it.Create(rec.item)
		case trace.Update:
			s.seq, annot = s.it.Update(rec.item)
		case trace.Destroy:
			s.seq, annot = s.it.Destroy(rec.item)
		default:
			s.seq, annot = s.it.Reliable()
		}
	}
	s.log = append(s.log, rec)
	return obsolete.Msg{Sender: s.self, Seq: s.seq, Annot: annot}
}

// fill mints len(batch) session messages; the caller stamps the send time.
// The engine and the in-memory transport keep references to payloads until
// the message is delivered everywhere, so every batch gets fresh payload
// memory.
func (s *stream) fill(batch []core.OutMsg) {
	buf := make([]byte, payloadLen*len(batch))
	for i := range batch {
		meta, rec := s.next()
		batch[i] = core.OutMsg{Meta: meta, Payload: stamp(buf[i*payloadLen:(i+1)*payloadLen:(i+1)*payloadLen], meta.Seq, rec)}
	}
}

// stamp writes everything but the send time into payload p and returns it.
func stamp(p []byte, seq ident.Seq, rec sentMsg) []byte {
	binary.LittleEndian.PutUint64(p[8:16], uint64(seq))
	p[16] = rec.kind
	binary.LittleEndian.PutUint32(p[17:21], rec.item)
	return p
}

// markerMsg mints a marker as a one-message batch.
func (s *stream) markerMsg() []core.OutMsg {
	meta, rec := s.marker()
	return []core.OutMsg{{Meta: meta, Payload: stamp(make([]byte, payloadLen), meta.Seq, rec)}}
}
