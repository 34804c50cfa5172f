package codec

import (
	"fmt"
	"reflect"
)

// TypeID tags a registered wire type on the wire. IDs are allocated
// centrally here so independent packages cannot collide.
type TypeID byte

const (
	invalidType TypeID = iota
	// TDataMsg .. TStableMsg are the SVS protocol messages (internal/core).
	TDataMsg
	TInitMsg
	TPredMsg
	TCreditMsg
	TStableMsg
	// TConsensusMsg is the consensus round message (internal/consensus).
	TConsensusMsg
	// TBeat is the failure-detector heartbeat (internal/fd).
	TBeat
	// TJoinReqMsg and TStateMsg are the dynamic-membership handshake
	// (internal/core): a join request from a process outside the group and
	// the semantic state transfer that admits it.
	TJoinReqMsg
	TStateMsg
	// TDataBatchMsg coalesces a run of DataMsgs from one sender into a
	// single envelope (internal/core's batched data plane).
	TDataBatchMsg
	// TProbeMsg and TSplitMsg are the partition-healing protocol
	// (internal/core): discovery probes and minority split declarations. A
	// merge needs no message of its own: it is announced by a TInitMsg over
	// two sides and contributed to by TPredMsgs.
	TProbeMsg
	TSplitMsg

	// TTestA and TTestB are reserved for package tests.
	TTestA TypeID = 250
	TTestB TypeID = 251
)

type entry struct {
	typ reflect.Type
	enc func(dst []byte, v any) []byte
	dec func(r *Reader) (any, error)
}

var (
	regByID   [256]*entry
	regByType = make(map[reflect.Type]TypeID)
)

// Register binds id to T with its encode/decode pair. It must be called
// from init functions only (the registry is read without locking after
// program initialisation) and panics on duplicate ids or types.
func Register[T any](id TypeID, enc func(dst []byte, v T) []byte, dec func(r *Reader) (T, error)) {
	var zero T
	t := reflect.TypeOf(zero)
	if t == nil {
		panic("codec: Register of interface type")
	}
	if id == invalidType {
		panic("codec: Register with invalid type id 0")
	}
	if prev := regByID[id]; prev != nil {
		panic(fmt.Sprintf("codec: type id %d already registered to %v", id, prev.typ))
	}
	if prev, dup := regByType[t]; dup {
		panic(fmt.Sprintf("codec: type %v already registered as id %d", t, prev))
	}
	regByID[id] = &entry{
		typ: t,
		enc: func(dst []byte, v any) []byte { return enc(dst, v.(T)) },
		dec: func(r *Reader) (any, error) { return dec(r) },
	}
	regByType[t] = id
}

// Registered reports whether msg's concrete type has an encoder.
func Registered(msg any) bool {
	_, ok := regByType[reflect.TypeOf(msg)]
	return ok
}

// Marshal appends the TypeID tag and encoding of msg to dst. dst is
// returned unchanged when msg's type is not registered.
func Marshal(dst []byte, msg any) ([]byte, error) {
	id, ok := regByType[reflect.TypeOf(msg)]
	if !ok {
		return dst, fmt.Errorf("codec: unregistered type %T", msg)
	}
	dst = append(dst, byte(id))
	return regByID[id].enc(dst, msg), nil
}

// Unmarshal decodes one type-tagged message from r. It does not require r
// to be exhausted afterwards, so several messages can share one buffer.
func Unmarshal(r *Reader) (any, error) {
	id := r.Byte()
	if err := r.Err(); err != nil {
		return nil, err
	}
	e := regByID[id]
	if e == nil {
		return nil, fmt.Errorf("codec: unknown type id %d", id)
	}
	v, err := e.dec(r)
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

// UnmarshalBytes decodes exactly one type-tagged message occupying all of p.
func UnmarshalBytes(p []byte) (any, error) {
	r := NewReader(p)
	v, err := Unmarshal(r)
	if err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return v, nil
}
