package core

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/codec"
)

// TestWireGolden pins the wire format: testdata/wire_golden.txt holds one
// value of every core wire type — its Go type, its encoding in hex and its
// fields — and each line must decode to that type and those fields and
// encode back to the same bytes. The fields are compared as JSON with a
// view's number keyed "ID", whether a message spells it View or embeds a
// View, so the file checks the bytes, not the Go shape of the messages.
func TestWireGolden(t *testing.T) {
	f, err := os.Open("testdata/wire_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			t.Fatalf("malformed line %q", line)
		}
		typ, want := fs[0], fs[2]
		raw, err := hex.DecodeString(fs[1])
		if err != nil {
			t.Fatal(err)
		}
		v, err := codec.UnmarshalBytes(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", typ, err)
		}
		if got := fmt.Sprintf("%T", v); got != typ {
			t.Fatalf("%s decodes to a %s", typ, got)
		}
		if got := goldenFields(t, v); got != want {
			t.Errorf("%s decodes to\n  %s\nwant\n  %s", typ, got, want)
		}
		if re, err := codec.Marshal(nil, v); err != nil || !bytes.Equal(re, raw) {
			t.Errorf("%s re-encodes to %x (err %v), want %x", typ, re, err, raw)
		}
		seen[typ] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{DataMsg{}, &DataBatchMsg{}, InitMsg{}, PredMsg{}, CreditMsg{},
		StableMsg{}, JoinReqMsg{}, StateMsg{}, ProbeMsg{}, SplitMsg{}} {
		if typ := fmt.Sprintf("%T", v); !seen[typ] {
			t.Errorf("no golden encoding of %s", typ)
		}
	}
}

// goldenFields renders v's fields as JSON, with every numeric "View" key —
// a view's number under its old name — keyed "ID".
func goldenFields(t *testing.T, v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	var rekey func(any) any
	rekey = func(x any) any {
		switch x := x.(type) {
		case map[string]any:
			for k, y := range x {
				x[k] = rekey(y)
			}
			if n, ok := x["View"].(float64); ok {
				delete(x, "View")
				x["ID"] = n
			}
		case []any:
			for i, y := range x {
				x[i] = rekey(y)
			}
		}
		return x
	}
	out, err := json.Marshal(rekey(tree))
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
