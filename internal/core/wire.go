package core

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/ident"
	"repro/internal/obsolete"
)

// DataMsg is the [DATA, v, d] message of Figure 1: an application payload
// tagged with the view (epoch + id) it was multicast in and the sender's
// obsolescence metadata. The epoch matters once partitions heal: two
// sub-views advance view numbers independently, so the bare id no longer
// distinguishes "current view" from "other lineage's view".
type DataMsg struct {
	View    ident.ViewID
	Epoch   ident.Epoch
	Meta    obsolete.Msg
	Payload []byte
}

// Ref returns the global name of the view m was multicast in.
func (m DataMsg) Ref() ident.ViewRef { return ident.ViewRef{Epoch: m.Epoch, ID: m.View} }

// DataBatchMsg coalesces a run of DataMsgs from one sender into a single
// envelope: one channel operation, one inbox deposit and one type switch
// on the receiver cover the whole run. The batch is registered as a
// pointer type so placing it in an envelope's `any` boxes nothing.
//
// Batches are a transport-level amortisation only — the receiver processes
// the contained messages exactly as if they had arrived one by one, so
// every protocol obligation (per-sender FIFO, flow-control accounting,
// purge decisions) is untouched. A batch is never shared across
// goroutines after send: fault-injecting transports may duplicate an
// envelope, which aliases the same *DataBatchMsg into two deliveries, so
// receivers must not mutate it.
type DataBatchMsg struct {
	Msgs []DataMsg
}

// InitMsg is the [INIT, v, l] message of Figure 1, the one announcement of
// every change. An INIT over one side (Far nil) triggers the view change of
// the view it names, removing the processes in Leave and admitting the
// processes in Join. Joiners do not take part in the flush or the consensus
// deciding the view that admits them; they are brought up to date afterwards
// by a StateMsg. An INIT over two sides merges the healed sub-views View and
// Far into their union (merge.go); the pair is normalised, lower ref first,
// so every process derives the same union.
type InitMsg struct {
	View  // a merge's near side; an ordinary change names the view, not its members
	Leave []ident.PID
	Join  []ident.PID
	Far   *View
}

// JoinReqMsg is sent by a process outside the group to a contact member to
// ask admission; the envelope's From identifies the joiner. A member
// receiving it triggers a view change whose Join set contains the joiner —
// or, when the joiner is already a member of the current view (its state
// transfer was lost, e.g. the sponsor crashed), answers directly with a
// fresh StateMsg.
type JoinReqMsg struct{}

// StateMsg is a view with the state to adopt before installing it: the
// view, per-sender reception frontiers, and a relation-purged backlog. It
// is the semantic state transfer that completes a join — the sponsor's
// delivered history and still-queued messages, purged through the group's
// obsolescence relation, so bounded by the relation rather than by the
// group's age (§2.3/§4.2) — and the value every view change, split and
// merge decides: the next view and its flush.
type StateMsg struct {
	View
	// Recv maps each sender to the highest sequence number received from
	// it — by the sponsor when it took the snapshot, or by any contributor
	// to a merge; the installer adopts it as its reception frontier so
	// direct copies of backlog messages are recognised as duplicates.
	Recv    map[ident.PID]ident.Seq
	Backlog []DataMsg
}

// PredMsg is the [PRED, v, P] message of Figure 1, the one contribution to
// every change: the sender's data messages accepted for delivery in its
// current view (its local-pred set), in FIFO order, for the change opened
// for successor Change (snapshot.go, contribution). A merge's also carries
// the sender's per-sender reception frontiers, so the union can tell a
// duplicate from a message it never had. Decline is a process that cannot
// take part in a merge naming it (it was expelled) counting itself out, so
// the others need not wait for its suspicion.
type PredMsg struct {
	Change  ident.ViewRef
	Msgs    []DataMsg
	Recv    map[ident.PID]ident.Seq
	Decline bool
}

// CreditMsg implements the window-based flow control of the engine: the
// receiver returns credits to a sender as it consumes (delivers or purges)
// that sender's messages. A sender without credits buffers in its bounded
// outgoing queue and eventually blocks the application — the behaviour
// whose cost §5 measures.
type CreditMsg struct {
	View    ident.ViewID
	Epoch   ident.Epoch
	Credits int
}

// ProbeMsg is the partition-healing discovery beacon: an unblocked member
// with healing enabled periodically sends its current view (epoch + id +
// members) to processes it once shared a view with. A probe from a
// different lineage reveals a healed partition and starts a merge; a probe
// from a newer view of the *same* lineage tells a straggler it has been
// evicted.
type ProbeMsg struct{ View }

// SplitMsg is broadcast by the lowest-ordered live member of a blocked
// view change that cannot reach a majority: the declared survivor set
// continues as a minority sub-view under a fresh split epoch instead of
// wedging forever. Its view is the parent (current) view's ref with the
// survivor set as members, whose lowest PID must be the declaring leader. As
// suspicions accrue, successively lower-ordered survivors declare
// successively smaller sets — the rotating-proposer arbitration between
// competing continuations; consensus picks exactly one per epoch.
type SplitMsg struct{ View }

func init() {
	codec.Register[DataMsg](codec.TDataMsg, appendDataMsg, readDataMsgStrict)
	codec.Register[InitMsg](codec.TInitMsg, appendInitMsg, readInitMsg)
	codec.Register[PredMsg](codec.TPredMsg, appendPredMsg, readPredMsg)
	codec.Register[CreditMsg](codec.TCreditMsg, appendCreditMsg, readCreditMsg)
	codec.Register[StableMsg](codec.TStableMsg, appendStableMsg, readStableMsg)
	codec.Register[JoinReqMsg](codec.TJoinReqMsg,
		func(dst []byte, _ JoinReqMsg) []byte { return dst },
		func(_ *codec.Reader) (JoinReqMsg, error) { return JoinReqMsg{}, nil })
	codec.Register[StateMsg](codec.TStateMsg, appendStateMsg, readStateMsg)
	codec.Register[*DataBatchMsg](codec.TDataBatchMsg, appendDataBatchMsg, readDataBatchMsg)
	// ProbeMsg and SplitMsg are a view on the wire.
	codec.Register[ProbeMsg](codec.TProbeMsg,
		func(dst []byte, m ProbeMsg) []byte { return appendView(dst, m.View) },
		func(r *codec.Reader) (ProbeMsg, error) { return ProbeMsg{readView(r)}, r.Err() })
	codec.Register[SplitMsg](codec.TSplitMsg,
		func(dst []byte, m SplitMsg) []byte { return appendView(dst, m.View) },
		func(r *codec.Reader) (SplitMsg, error) { return SplitMsg{readView(r)}, r.Err() })
}

// ---- binary encoders (internal/codec) --------------------------------------

// maxPrealloc clamps a wire-supplied element count before it becomes a
// pre-allocation: Reader.Count bounds counts in *bytes* of remaining
// input, but our elements are multi-byte structs, so a corrupt count
// could otherwise demand an ~80x amplified up-front allocation. Slices
// and maps grow past it naturally; truncated input still fails at the
// first missing element.
const maxPrealloc = 1024

// appendList encodes a list: its count (nil kept apart from empty), then
// each element.
func appendList[T any](dst []byte, xs []T, enc func([]byte, T) []byte) []byte {
	dst = codec.AppendCount(dst, len(xs), xs == nil)
	for _, x := range xs {
		dst = enc(dst, x)
	}
	return dst
}

// readList decodes a list appendList encoded.
func readList[T any](r *codec.Reader, dec func(*codec.Reader) T) []T {
	n, isNil := r.Count()
	if isNil {
		return nil
	}
	out := make([]T, 0, min(n, maxPrealloc))
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, dec(r))
	}
	return out
}

func appendDataMsg(dst []byte, m DataMsg) []byte {
	dst = codec.AppendUvarint(dst, uint64(m.View))
	dst = codec.AppendUvarint(dst, uint64(m.Epoch))
	dst = codec.AppendString(dst, string(m.Meta.Sender))
	dst = codec.AppendUvarint(dst, uint64(m.Meta.Seq))
	dst = codec.AppendBytes(dst, m.Meta.Annot)
	return codec.AppendBytes(dst, m.Payload)
}

func readDataMsg(r *codec.Reader) DataMsg {
	var m DataMsg
	m.View = ident.ViewID(r.Uvarint())
	m.Epoch = ident.Epoch(r.Uvarint())
	m.Meta.Sender = ident.PID(r.String())
	m.Meta.Seq = ident.Seq(r.Uvarint())
	m.Meta.Annot = r.Bytes()
	m.Payload = r.Bytes()
	return m
}

func readDataMsgStrict(r *codec.Reader) (DataMsg, error) {
	m := readDataMsg(r)
	return m, r.Err()
}

func appendDataBatchMsg(dst []byte, m *DataBatchMsg) []byte {
	return appendList(dst, m.Msgs, appendDataMsg)
}

func readDataBatchMsg(r *codec.Reader) (*DataBatchMsg, error) {
	m := &DataBatchMsg{Msgs: readList(r, readDataMsg)}
	return m, r.Err()
}

// An InitMsg's members follow its Leave and Join, so its near side is not
// encoded as a view.
func appendInitMsg(dst []byte, m InitMsg) []byte {
	dst = codec.AppendUvarint(dst, uint64(m.ID))
	dst = codec.AppendUvarint(dst, uint64(m.Epoch))
	dst = appendList(dst, m.Leave, appendPID)
	dst = appendList(dst, m.Join, appendPID)
	dst = appendList(dst, m.Members, appendPID)
	dst = codec.AppendByte(dst, boolByte(m.Far != nil))
	if m.Far != nil {
		dst = appendView(dst, *m.Far)
	}
	return dst
}

func readInitMsg(r *codec.Reader) (InitMsg, error) {
	var m InitMsg
	m.ID = ident.ViewID(r.Uvarint())
	m.Epoch = ident.Epoch(r.Uvarint())
	m.Leave = readList(r, readPID)
	m.Join = readList(r, readPID)
	m.Members = readList(r, readPID)
	if r.Byte() != 0 {
		far := readView(r)
		m.Far = &far
	}
	return m, r.Err()
}

func appendPID(dst []byte, p ident.PID) []byte { return codec.AppendString(dst, string(p)) }

func readPID(r *codec.Reader) ident.PID { return ident.PID(r.String()) }

// appendSeqMap encodes a per-sender frontier map with sorted keys so the
// encoding is deterministic across processes (and its size comparable in
// tests).
func appendSeqMap(dst []byte, m map[ident.PID]ident.Seq) []byte {
	dst = codec.AppendCount(dst, len(m), m == nil)
	keys := make([]ident.PID, 0, len(m))
	for p := range m {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, p := range keys {
		dst = codec.AppendString(dst, string(p))
		dst = codec.AppendUvarint(dst, uint64(m[p]))
	}
	return dst
}

func readSeqMap(r *codec.Reader) map[ident.PID]ident.Seq {
	n, isNil := r.Count()
	if isNil {
		return nil
	}
	m := make(map[ident.PID]ident.Seq, min(n, maxPrealloc))
	for i := 0; i < n && r.Err() == nil; i++ {
		p := ident.PID(r.String())
		m[p] = ident.Seq(r.Uvarint())
	}
	return m
}

func appendStateMsg(dst []byte, m StateMsg) []byte {
	dst = appendView(dst, m.View)
	dst = appendSeqMap(dst, m.Recv)
	return appendList(dst, m.Backlog, appendDataMsg)
}

func readStateMsg(r *codec.Reader) (StateMsg, error) {
	m := StateMsg{View: readView(r)}
	m.Recv = readSeqMap(r)
	m.Backlog = readList(r, readDataMsg)
	return m, r.Err()
}

func appendPredMsg(dst []byte, m PredMsg) []byte {
	dst = codec.AppendUvarint(dst, uint64(m.Change.ID))
	dst = codec.AppendUvarint(dst, uint64(m.Change.Epoch))
	dst = appendList(dst, m.Msgs, appendDataMsg)
	dst = appendSeqMap(dst, m.Recv)
	return codec.AppendByte(dst, boolByte(m.Decline))
}

func readPredMsg(r *codec.Reader) (PredMsg, error) {
	var m PredMsg
	m.Change.ID = ident.ViewID(r.Uvarint())
	m.Change.Epoch = ident.Epoch(r.Uvarint())
	m.Msgs = readList(r, readDataMsg)
	m.Recv = readSeqMap(r)
	m.Decline = r.Byte() != 0
	return m, r.Err()
}

// appendView encodes a view: its number, its epoch, its members.
func appendView(dst []byte, v View) []byte {
	dst = codec.AppendUvarint(dst, uint64(v.ID))
	dst = codec.AppendUvarint(dst, uint64(v.Epoch))
	return appendList(dst, v.Members, appendPID)
}

func readView(r *codec.Reader) View {
	var v View
	v.ID = ident.ViewID(r.Uvarint())
	v.Epoch = ident.Epoch(r.Uvarint())
	v.Members = readList(r, readPID)
	return v
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendCreditMsg(dst []byte, m CreditMsg) []byte {
	dst = codec.AppendUvarint(dst, uint64(m.View))
	dst = codec.AppendUvarint(dst, uint64(m.Epoch))
	return codec.AppendVarint(dst, int64(m.Credits))
}

func readCreditMsg(r *codec.Reader) (CreditMsg, error) {
	var m CreditMsg
	m.View = ident.ViewID(r.Uvarint())
	m.Epoch = ident.Epoch(r.Uvarint())
	m.Credits = int(r.Varint())
	return m, r.Err()
}

func appendStableMsg(dst []byte, m StableMsg) []byte {
	dst = codec.AppendUvarint(dst, uint64(m.View))
	dst = codec.AppendUvarint(dst, uint64(m.Epoch))
	return appendSeqMap(dst, m.Recv)
}

func readStableMsg(r *codec.Reader) (StableMsg, error) {
	var m StableMsg
	m.View = ident.ViewID(r.Uvarint())
	m.Epoch = ident.Epoch(r.Uvarint())
	m.Recv = readSeqMap(r)
	return m, r.Err()
}

// viewInstance names the consensus instance deciding the view ref. The
// epoch is part of the name — that is the point of lineage-aware identity:
// two partitions independently deciding their next view run *different*
// consensus instances instead of colliding on "svs-view/<id+1>".
func viewInstance(ref ident.ViewRef) string {
	return fmt.Sprintf("svs-view/%x/%d", uint64(ref.Epoch), uint64(ref.ID))
}
