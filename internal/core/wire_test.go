package core

import (
	"testing"

	"repro/internal/ident"
)

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
