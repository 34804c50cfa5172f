package relcheck

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/ident"
	"repro/internal/obsolete"
)

// ---- Built-in encodings ----------------------------------------------------

func TestBuiltinsSound(t *testing.T) {
	for _, name := range BuiltinNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := Builtin(name, Domain{})
			if err != nil {
				t.Fatalf("Builtin(%q): %v", name, err)
			}
			r := Run(m)
			if !r.OK() {
				t.Fatalf("built-in %q unsound:\n%s", name, r.Summary())
			}
			for _, c := range r.Checks {
				if c.Skipped || c.Family == "confluence" {
					continue
				}
				// The empty relation relates nothing, so its chain/pair
				// checks legitimately examine nothing.
				if c.Checked == 0 && r.Related > 0 {
					t.Errorf("check %s/%s examined nothing — vacuous pass", c.Family, c.Name)
				}
			}
		})
	}
}

// TestBuiltinTransitivityNonVacuous pins the domain tuning: the default
// domain must contain real chains for every encoding that claims
// transitivity, else the law is verified on zero triples.
func TestBuiltinTransitivityNonVacuous(t *testing.T) {
	for _, name := range BuiltinNames() {
		if name == "empty" {
			continue // relates nothing; zero chains is correct
		}
		m, err := Builtin(name, Domain{})
		if err != nil {
			t.Fatal(err)
		}
		r := Run(m)
		for _, c := range r.Checks {
			if c.Name == "transitivity" && !c.Skipped && c.Checked == 0 {
				t.Errorf("built-in %q: transitivity checked 0 chains", name)
			}
		}
	}
}

// TestTaggingClosureIsSameTag: the closure the protocol honours over the
// tagging model's listings (check.Closure) is exactly the same-tag relation:
// a ⊑* b for a ≠ b just when both update one item of one sender and a is
// older. Over DefaultDomain the window spans every same-tag pair, so each
// update lists them all; under a window of 2 some pair is covered only
// through a chain, since an update lists its item's previous update at any
// distance.
func TestTaggingClosureIsSameTag(t *testing.T) {
	tag := func(m obsolete.Msg) int { // as Builtin mints them
		if m.Seq%5 == 0 {
			return -1 // reliable
		}
		return int(m.Seq) % DefaultDomain.Tags
	}
	for _, k := range []int{DefaultDomain.K, 2} {
		d := DefaultDomain
		d.K = k
		m, err := Builtin("tagging", d)
		if err != nil {
			t.Fatal(err)
		}
		msgs := m.Msgs()
		closure := check.NewClosure(m.Rel, msgs)
		chained := 0
		for _, a := range msgs {
			for _, b := range msgs {
				if a.ID() == b.ID() {
					continue
				}
				want := a.Sender == b.Sender && a.Seq < b.Seq && tag(a) >= 0 && tag(a) == tag(b)
				if got := closure.Covers(a.ID(), b.ID()); got != want {
					t.Fatalf("window %d: %s ⊑* %s is %v, same-tag says %v", k, msgStr(a), msgStr(b), got, want)
				}
				if want && !m.Rel.Obsoletes(a, b) {
					chained++
				}
			}
		}
		if (chained == 0) != (k == DefaultDomain.K) {
			t.Fatalf("window %d: %d same-tag pairs covered only through a chain", k, chained)
		}
	}
}

func TestBuiltinUnknown(t *testing.T) {
	if _, err := Builtin("nope", Domain{}); err == nil {
		t.Fatal("Builtin(nope) succeeded")
	}
}

// TestBuiltinConfluenceExhaustive pins that the default domain stays under
// the enumeration bound — CI's builtin run must be a proof, not a sample.
func TestBuiltinConfluenceExhaustive(t *testing.T) {
	m, err := Builtin("k-enumeration", Domain{})
	if err != nil {
		t.Fatal(err)
	}
	r := Run(m)
	for _, c := range r.Checks {
		if c.Family == "confluence" && strings.Contains(c.Detail, "sampled") {
			t.Fatalf("default-domain confluence sampled, want exhaustive: %+v", c)
		}
	}
}

// ---- Unsound models: each check family catches its own lie -----------------

func mustParse(t *testing.T, text string) *Model {
	t.Helper()
	m, err := ParseYAML(text)
	if err != nil {
		t.Fatalf("ParseYAML: %v", err)
	}
	return m
}

func violationsOf(r *Report, check string) []Violation {
	var out []Violation
	for _, v := range r.Violations() {
		if v.Check == check {
			out = append(out, v)
		}
	}
	return out
}

// TestUnsoundCrossDetected: a relation that reaches across senders breaks
// the sender-local law, with the first cross pair as its witness, and
// nothing else — the queue never asks about such a pair, so it purges
// nothing the closure does not cover.
func TestUnsoundCrossDetected(t *testing.T) {
	m := mustParse(t, `
name: unsound-cross
relation: rules
rules:
  - match: cross-sender
    reach: 2
`)
	r := Run(m)
	want := "p1:1 ≺ p2:2 crosses senders p1→p2"
	if sl := violationsOf(r, "sender-local"); len(sl) != 1 || sl[0].Witness != want || len(r.Violations()) != 1 {
		t.Fatalf("want the one sender-local witness %q, got %v", want, r.Violations())
	}
}

// misListing is k-enumeration whose listing lies about what the bitmap
// says: it adds the direct predecessor to every list (over), or drops the
// first number listed (under).
type misListing struct {
	obsolete.KEnumeration
	over bool
}

func (r misListing) AppendObsoleted(dst []ident.Seq, n obsolete.Msg, floor ident.Seq) []ident.Seq {
	out := r.KEnumeration.AppendObsoleted(dst, n, floor)
	switch {
	case r.over && n.Seq > 1 && n.Seq-1 >= floor:
		out = append(out, n.Seq-1)
	case !r.over && len(out) > len(dst):
		out = out[:len(out)-1]
	}
	return out
}

// TestUnsoundListingDetected: a relation whose listing names a predecessor
// its Obsoletes does not — the queue would purge what the closure says
// nothing covers — is rejected by purge safety with a minimal arrival
// witness, and nothing else; one that lists too little only purges less,
// which is safe. (No relation a model can name lists apart from its
// Obsoletes; the two are split here by hand.)
func TestUnsoundListingDetected(t *testing.T) {
	m, err := Builtin("k-enumeration", Domain{})
	if err != nil {
		t.Fatal(err)
	}
	k := m.Rel.(obsolete.KEnumeration)

	m.Rel = misListing{KEnumeration: k, over: true}
	r := Run(m)
	if ps := violationsOf(r, "purge-safety"); len(ps) != 1 || len(r.Violations()) != 1 ||
		!strings.Contains(ps[0].Witness, "deliver nothing that covers it") {
		t.Fatalf("over-listing: want one purge-safety witness, got %v", r.Violations())
	}

	m.Rel = misListing{KEnumeration: k}
	if r := Run(m); !r.OK() {
		t.Fatalf("under-listing purges less, which is safe; got %v", r.Violations())
	}
}

func TestSymmetricViolatesAntisymmetry(t *testing.T) {
	m := mustParse(t, `
relation: rules
rules:
  - match: symmetric
    reach: 2
`)
	r := Run(m)
	vs := violationsOf(r, "antisymmetry")
	if len(vs) != 1 {
		t.Fatalf("want antisymmetry violation, got %v", r.Violations())
	}
}

func TestSelfViolatesIrreflexivity(t *testing.T) {
	m := mustParse(t, `
relation: rules
rules:
  - match: self
`)
	r := Run(m)
	vs := violationsOf(r, "irreflexivity")
	if len(vs) != 1 {
		t.Fatalf("want irreflexivity violation, got %v", r.Violations())
	}
}

func TestNonTransitiveClaimDetected(t *testing.T) {
	// stride[1,2] is not transitive (1≺2≺4 but 1⊀4 needs delta 3) — claiming
	// transitivity must fail with a chain witness.
	m := mustParse(t, `
relation: rules
transitive: true
rules:
  - match: stride
    reach: 2
`)
	r := Run(m)
	vs := violationsOf(r, "transitivity")
	if len(vs) != 1 || !strings.Contains(vs[0].Witness, "⊀") {
		t.Fatalf("want transitivity violation with ⊀ witness, got %v", r.Violations())
	}
}

// TestSoundRulesModel: rule models whose declaration matches their
// behaviour verify sound end to end. The first stride spans the whole stream
// (depth 6), so the relation is genuinely transitive — a shorter stride
// would not be (1≺2≺5 without 1≺5). The second is the batch-commit shape
// that reaches 3 to 4 back and nothing nearer: no intermediate arrival
// purges the victim, and the arrival purge, which looks at the whole
// stream, finds it all the same. The third is the tag rule, whose listing is
// every earlier number of the same residue.
func TestSoundRulesModel(t *testing.T) {
	for _, text := range []string{`
name: honest-stride
relation: rules
transitive: true
rules:
  - match: stride
    reach: 6
`, `
name: batch-commit-stride
relation: rules
rules:
  - match: stride
    from: 3
    reach: 4
`, `
name: tag-rule
relation: rules
transitive: true
tags: 2
rules:
  - match: tag
`} {
		m := mustParse(t, text)
		if r := Run(m); !r.OK() {
			t.Fatalf("honest model unsound:\n%s", r.Summary())
		} else if r.Related == 0 {
			t.Fatalf("%s relates nothing — vacuous pass", m.Name)
		}
	}
}

// ---- YAML parser -----------------------------------------------------------

func TestParseYAMLErrors(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"missing-relation", "name: x\n", "missing required key"},
		{"unknown-key", "relation: empty\nbogus: 1\n", `unknown key "bogus"`},
		{"duplicate-key", "relation: empty\nrelation: tagging\n", "duplicate key"},
		{"bad-bool", "relation: empty\ntransitive: maybe\n", "want true or false"},
		{"bad-int", "relation: empty\ndepth: -3\n", "non-negative integer"},
		{"rules-without-relation-rules", "relation: empty\nrules:\n  - match: stride\n", "only valid with relation: rules"},
		{"rules-empty", "relation: rules\n", "non-empty rules section"},
		{"rule-unknown-match", "relation: rules\nrules:\n  - match: wat\n", "unknown rule match"},
		{"rule-unknown-key", "relation: rules\nrules:\n  - match: stride\n    stride: 2\n", `unknown key "stride"`},
		{"rule-from-nonstride", "relation: rules\nrules:\n  - match: cross-sender\n    from: 2\n", "only valid for stride"},
		{"rule-from-beyond-reach", "relation: rules\nrules:\n  - match: stride\n    reach: 2\n    from: 3\n", "positive integer ≤ reach"},
		{"window-key-is-gone", "relation: k-enumeration\nwindow: 2\n", `unknown key "window"`},
		{"sender-local-key-is-gone", "relation: rules\nsender-local: true\nrules:\n  - match: stride\n", `unknown key "sender-local"`},
		{"value-missing", "relation:\n", "no value"},
		{"not-kv", "relation: empty\njust words\n", "expected key: value"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseYAML(tc.text)
			if err == nil {
				t.Fatalf("ParseYAML accepted %q", tc.text)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseYAMLDefaults(t *testing.T) {
	m := mustParse(t, "relation: k-enumeration\n")
	if m.Name != "k-enumeration" {
		t.Errorf("Name = %q, want relation name fallback", m.Name)
	}
	if !m.Transitive || m.TransWindow != DefaultDomain.K {
		t.Errorf("k-enumeration should claim transitivity within its window")
	}
}

func TestParseYAMLOverrides(t *testing.T) {
	// A spec may weaken a built-in's claims to probe what-ifs.
	m := mustParse(t, "relation: k-enumeration\ntransitive: false\n")
	if m.Transitive {
		t.Errorf("overrides not applied: %+v", m)
	}
}

// ---- Interleaving enumeration ----------------------------------------------

func TestCountInterleavings(t *testing.T) {
	mk := func(depths ...int) []Stream {
		var out []Stream
		for i, d := range depths {
			s := Stream{Sender: senderPID(i)}
			for j := 1; j <= d; j++ {
				s.Msgs = append(s.Msgs, obsolete.Msg{Sender: s.Sender, Seq: seq(j)})
			}
			out = append(out, s)
		}
		return out
	}
	cases := []struct {
		depths []int
		want   uint64
	}{
		{[]int{}, 1},
		{[]int{3}, 1},
		{[]int{1, 1}, 2},
		{[]int{2, 2}, 6},
		{[]int{6, 6}, 924},     // C(12,6)
		{[]int{3, 3, 3}, 1680}, // 9!/(3!3!3!)
	}
	for _, tc := range cases {
		got, exceeded := countInterleavings(mk(tc.depths...), 1_000_000)
		if exceeded || got != tc.want {
			t.Errorf("countInterleavings(%v) = %d (exceeded=%v), want %d", tc.depths, got, exceeded, tc.want)
		}
	}
	if got, exceeded := countInterleavings(mk(20, 20), 2000); !exceeded || got != 2001 {
		t.Errorf("cap: got (%d,%v), want (2001,true)", got, exceeded)
	}
}

func TestEnumerateVisitsAllFIFO(t *testing.T) {
	streams := []Stream{
		{Sender: senderPID(0), Msgs: []obsolete.Msg{
			{Sender: senderPID(0), Seq: 1}, {Sender: senderPID(0), Seq: 2}}},
		{Sender: senderPID(1), Msgs: []obsolete.Msg{
			{Sender: senderPID(1), Seq: 1}, {Sender: senderPID(1), Seq: 2}}},
	}
	seen := map[string]bool{}
	visited, exhaustive := forEachInterleaving(streams, 100, func(arr []obsolete.Msg) bool {
		last := map[string]uint64{}
		for _, m := range arr {
			if uint64(m.Seq) <= last[string(m.Sender)] {
				t.Fatalf("FIFO violated in %s", msgsStr(arr))
			}
			last[string(m.Sender)] = uint64(m.Seq)
		}
		seen[msgsStr(arr)] = true
		return true
	})
	if !exhaustive || visited != 6 || len(seen) != 6 {
		t.Fatalf("visited %d (exhaustive=%v), distinct %d; want 6 exhaustive distinct", visited, exhaustive, len(seen))
	}
}

func TestSampledEnumerationIsFIFOAndBounded(t *testing.T) {
	var streams []Stream
	for i := 0; i < 3; i++ {
		s := Stream{Sender: senderPID(i)}
		for j := 1; j <= 8; j++ {
			s.Msgs = append(s.Msgs, obsolete.Msg{Sender: s.Sender, Seq: seq(j)})
		}
		streams = append(streams, s)
	}
	visited, exhaustive := forEachInterleaving(streams, 50, func(arr []obsolete.Msg) bool {
		if len(arr) != 24 {
			t.Fatalf("interleaving has %d messages, want 24", len(arr))
		}
		last := map[string]uint64{}
		for _, m := range arr {
			if uint64(m.Seq) <= last[string(m.Sender)] {
				t.Fatalf("FIFO violated in sample")
			}
			last[string(m.Sender)] = uint64(m.Seq)
		}
		return true
	})
	if exhaustive || visited != 50 {
		t.Fatalf("visited %d (exhaustive=%v), want 50 sampled", visited, exhaustive)
	}
}

// ---- Witness minimization --------------------------------------------------

func TestMinimizeFixpoint(t *testing.T) {
	// Predicate: sequence contains both p1:1 and p1:4 in that relative
	// order (the shape of a real divergence witness).
	has := func(arr []obsolete.Msg) bool {
		i1, i4 := -1, -1
		for i, m := range arr {
			if m.Sender == senderPID(0) && m.Seq == 1 {
				i1 = i
			}
			if m.Sender == senderPID(0) && m.Seq == 4 {
				i4 = i
			}
		}
		return i1 >= 0 && i4 > i1
	}
	var arr []obsolete.Msg
	for i := 1; i <= 6; i++ {
		arr = append(arr, obsolete.Msg{Sender: senderPID(0), Seq: seq(i)})
		arr = append(arr, obsolete.Msg{Sender: senderPID(1), Seq: seq(i)})
	}
	w := minimize(arr, has)
	if len(w) != 2 || !has(w) {
		t.Fatalf("minimize left %s, want exactly [p1:1 p1:4]", msgsStr(w))
	}
}

// ---- Report rendering ------------------------------------------------------

func TestReportQuietShowsOnlyFailures(t *testing.T) {
	m := mustParse(t, `
relation: rules
rules:
  - match: cross-sender
    reach: 2
`)
	r := Run(m)
	var b strings.Builder
	r.Format(&b, true)
	out := b.String()
	if strings.Contains(out, "PASS") {
		t.Errorf("quiet output contains PASS lines:\n%s", out)
	}
	if !strings.Contains(out, "VIOLATION: sender-local:") {
		t.Errorf("quiet output missing violation:\n%s", out)
	}
	if !strings.Contains(out, "UNSOUND") {
		t.Errorf("quiet output missing verdict:\n%s", out)
	}
}

func TestReportSoundVerdict(t *testing.T) {
	m, err := Builtin("empty", Domain{})
	if err != nil {
		t.Fatal(err)
	}
	r := Run(m)
	var b strings.Builder
	r.Format(&b, false)
	if !strings.Contains(b.String(), "Result: SOUND") {
		t.Errorf("full report missing SOUND verdict:\n%s", b.String())
	}
}
