// Package relcheck is svs-check: an exhaustive static verifier for
// application-supplied obsolescence relations, in the mould of nccheck.
//
// SVS's safety guarantees (§3 of the paper) rest entirely on the
// obsolescence relation being well-behaved — a strict partial order over
// each sender's own stream whose purge decisions commute with delivery.
// internal/queue purges what an arrival's annotation lists, and every
// relation a model can name answers Obsoletes from that same listing (the
// built-in encodings read it, a rules model's listing is derived from its
// rules), so the two never disagree. relcheck takes a finite model of an
// application's message space and relation — a YAML spec (ParseYAML) or a
// registered in-process relation sampled over a bounded
// sender/seq/annotation domain (Builtin) — and exhaustively checks two
// families:
//
//  1. Laws: the strict-partial-order laws of §3.2 — irreflexivity,
//     antisymmetry, and transitivity where the encoding claims it
//     (within its window for the enumeration-style encodings); and
//     sender-locality: the relation never relates messages across senders
//     or against sequence order, pairs the protocol never asks about.
//  2. Confluence: for every interleaving of the modelled per-sender
//     streams (FIFO within each sender, the protocol invariant), purging
//     on every arrival under the model's relation and then delivering
//     leaves every purged message covered by a delivered one under the
//     reflexive-transitive closure (internal/check.Closure) — purging
//     commutes with delivery.
//
// Violations carry a minimal witness, printed nccheck-style
// ("VIOLATION: sender-local: p1:1 ≺ p2:2 crosses senders p1→p2"):
// pair/triple witnesses are minimal by enumeration order, interleaving
// witnesses are shrunk by greedy delta-minimisation.
package relcheck

import (
	"fmt"
	"sort"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

// Model is the finite universe svs-check verifies: a relation plus the
// bounded per-sender message streams it is exercised over, and the claims
// (transitivity) under verification.
type Model struct {
	// Name labels the model in reports.
	Name string
	// Source records where the model came from (a YAML path or "builtin").
	Source string
	// Rel is the relation under test. For YAML rule models this is the
	// union of the spec's rule predicates, listing what they relate in the
	// modelled domain.
	Rel obsolete.Relation

	// Streams holds the per-sender, seq-ordered message streams of the
	// universe, sorted by sender for deterministic enumeration.
	Streams []Stream

	// Transitive claims the relation is transitively closed — within
	// TransWindow sequence numbers when TransWindow > 0 (enumeration-style
	// encodings truncate closure at their window), fully otherwise.
	Transitive  bool
	TransWindow int

	// MaxInterleavings bounds the confluence enumeration; beyond it the
	// checker deterministically samples (and says so in the report).
	// 0 means DefaultMaxInterleavings.
	MaxInterleavings int
}

// Stream is one sender's seq-ordered message stream.
type Stream struct {
	Sender ident.PID
	Msgs   []obsolete.Msg
}

// DefaultMaxInterleavings bounds the exhaustive confluence enumeration.
// C(12,6) = 924 interleavings of two 6-message streams stay exhaustive;
// three senders fall back to sampling.
const DefaultMaxInterleavings = 2000

// Msgs returns the universe: every stream's messages, sorted by
// (sender, seq) so enumeration-order witnesses are minimal.
func (m *Model) Msgs() []obsolete.Msg {
	var out []obsolete.Msg
	for _, s := range m.Streams {
		out = append(out, s.Msgs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sender != out[j].Sender {
			return out[i].Sender < out[j].Sender
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// senderPID names the i-th (0-based) modelled sender: p1, p2, ...
func senderPID(i int) ident.PID { return ident.PID(fmt.Sprintf("p%d", i+1)) }

// msgStr renders a message id witness-style: "p1:3".
func msgStr(m obsolete.Msg) string { return fmt.Sprintf("%s:%d", m.Sender, m.Seq) }

// msgsStr renders an arrival sequence witness-style: "[p1:1 p2:1 p1:2]".
func msgsStr(ms []obsolete.Msg) string {
	s := "["
	for i, m := range ms {
		if i > 0 {
			s += " "
		}
		s += msgStr(m)
	}
	return s + "]"
}
