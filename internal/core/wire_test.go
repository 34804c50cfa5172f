package core

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

func TestConsensusValueRoundTrip(t *testing.T) {
	val := consensusValue{
		Next: View{ID: 7, Members: ident.NewPIDs("a", "b", "c")},
		Pred: []DataMsg{
			{View: 6, Meta: obsolete.Msg{Sender: "a", Seq: 1, Annot: []byte{1}}, Payload: []byte("x")},
			{View: 6, Meta: obsolete.Msg{Sender: "b", Seq: 9}, Payload: nil},
		},
	}
	raw := encodeValue(val)
	got, err := decodeValue(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Next.ID != val.Next.ID || !got.Next.Members.Equal(val.Next.Members) {
		t.Fatalf("Next = %+v, want %+v", got.Next, val.Next)
	}
	if len(got.Pred) != len(val.Pred) {
		t.Fatalf("Pred len %d, want %d", len(got.Pred), len(val.Pred))
	}
	for i := range val.Pred {
		if got.Pred[i].Meta.ID() != val.Pred[i].Meta.ID() || got.Pred[i].View != val.Pred[i].View {
			t.Fatalf("Pred[%d] = %+v, want %+v", i, got.Pred[i], val.Pred[i])
		}
	}
}

func TestDecodeValueRejectsGarbage(t *testing.T) {
	if _, err := decodeValue([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := decodeValue(nil); err == nil {
		t.Fatal("empty accepted")
	}
	// A format byte from a different (e.g. future) release is rejected
	// instead of mis-decoded — there is no cross-format fallback anymore.
	if _, err := decodeValue([]byte{valueFormat + 1, 0, 0}); err == nil {
		t.Fatal("unknown format byte accepted")
	}
}

func TestEmptyViewValueRoundTrip(t *testing.T) {
	// An expelling decision can carry a view the encoder's process is not
	// in; empty pred sets and single-member views must survive encoding.
	val := consensusValue{Next: View{ID: 2, Members: ident.NewPIDs("solo")}}
	raw := encodeValue(val)
	got, err := decodeValue(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pred) != 0 || got.Next.Members.Equal(ident.NewPIDs()) {
		t.Fatalf("got %+v", got)
	}
}

func TestViewInstanceNaming(t *testing.T) {
	if viewInstance(ident.ViewRef{ID: 3}) == viewInstance(ident.ViewRef{ID: 4}) {
		t.Fatal("instance names must be distinct per view")
	}
	if viewInstance(ident.ViewRef{Epoch: 7, ID: 3}) == viewInstance(ident.ViewRef{ID: 3}) {
		t.Fatal("instance names must be distinct per lineage")
	}
}

func TestViewHelpers(t *testing.T) {
	v := View{ID: 3, Members: ident.NewPIDs("a", "b")}
	if !v.Includes("a") || v.Includes("z") {
		t.Fatal("Includes wrong")
	}
	c := v.Clone()
	c.Members = c.Members.Remove("a")
	if !v.Includes("a") {
		t.Fatal("Clone shares membership")
	}
	if v.String() == "" {
		t.Fatal("String empty")
	}
	if DeliverData.String() != "data" || DeliverView.String() != "view" ||
		DeliverExpelled.String() != "expelled" || DeliveryKind(99).String() != "unknown" {
		t.Fatal("DeliveryKind.String wrong")
	}
}
