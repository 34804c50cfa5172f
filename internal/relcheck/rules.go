package relcheck

import (
	"fmt"
	"strings"

	"repro/internal/ident"
	"repro/internal/obsolete"
)

// Rule relations. A YAML model with `relation: rules` describes its
// relation as the union of small rule predicates, enough to model the
// shape of an application relation — and, deliberately, to model unsound
// ones: a rule set that crosses senders is exactly what a bad third-party
// relation would ask the protocol to honour, and the sender-local law
// rejects it.
type rule interface {
	// obsoletes reports old ≺ new under this rule alone.
	obsoletes(old, new obsolete.Msg) bool
	// String renders the rule for the report header.
	String() string
}

// strideRule relates same-sender messages between from and reach apart:
// old ≺ new iff same sender and from ≤ new.Seq − old.Seq ≤ reach. A from
// above 1 models a batch-commit shape that obsoletes only far-back
// messages: intermediate arrivals never purge the victim incrementally.
type strideRule struct{ from, reach int }

func (r strideRule) obsoletes(old, new obsolete.Msg) bool {
	return old.Sender == new.Sender && old.Seq < new.Seq &&
		uint64(new.Seq-old.Seq) >= uint64(r.from) &&
		uint64(new.Seq-old.Seq) <= uint64(r.reach)
}
func (r strideRule) String() string {
	if r.from > 1 {
		return fmt.Sprintf("stride[%d,%d]", r.from, r.reach)
	}
	return fmt.Sprintf("stride≤%d", r.reach)
}

// tagRule is the tagging shape: same sender, same tag, earlier seq, where
// message s of a stream updates item s mod tags.
type tagRule struct{ tags int }

func (r tagRule) obsoletes(old, new obsolete.Msg) bool {
	return old.Sender == new.Sender && old.Seq < new.Seq &&
		uint64(old.Seq)%uint64(r.tags) == uint64(new.Seq)%uint64(r.tags)
}
func (tagRule) String() string { return "tag" }

// crossSenderRule relates messages of different senders within reach —
// violates the sender-local law.
type crossSenderRule struct{ reach int }

func (r crossSenderRule) obsoletes(old, new obsolete.Msg) bool {
	return old.Sender != new.Sender && old.Seq < new.Seq &&
		uint64(new.Seq-old.Seq) <= uint64(r.reach)
}
func (r crossSenderRule) String() string { return fmt.Sprintf("cross-sender≤%d", r.reach) }

// symmetricRule relates same-sender messages within reach in both
// directions — violates antisymmetry.
type symmetricRule struct{ reach int }

func (r symmetricRule) obsoletes(old, new obsolete.Msg) bool {
	if old.Sender != new.Sender || old.Seq == new.Seq {
		return false
	}
	d := uint64(new.Seq - old.Seq)
	if new.Seq < old.Seq {
		d = uint64(old.Seq - new.Seq)
	}
	return d <= uint64(r.reach)
}
func (r symmetricRule) String() string { return fmt.Sprintf("symmetric≤%d", r.reach) }

// selfRule relates every message to itself — violates irreflexivity.
type selfRule struct{}

func (selfRule) obsoletes(old, new obsolete.Msg) bool {
	return old.Sender == new.Sender && old.Seq == new.Seq
}
func (selfRule) String() string { return "self" }

// ruleRelation is the union of its rules. Its messages carry no annotation
// — a rule reads sender and sequence number only — so its listing is derived
// from the modelled domain: every number from 1 up to the message's own that
// the rules relate to it.
type ruleRelation struct {
	rules []rule
}

func (r *ruleRelation) Name() string {
	parts := make([]string, len(r.rules))
	for i, ru := range r.rules {
		parts[i] = ru.String()
	}
	return fmt.Sprintf("rules(%s)", strings.Join(parts, " ∪ "))
}

func (r *ruleRelation) Obsoletes(old, new obsolete.Msg) bool {
	for _, ru := range r.rules {
		if ru.obsoletes(old, new) {
			return true
		}
	}
	return false
}

func (r *ruleRelation) AppendObsoleted(dst []ident.Seq, new obsolete.Msg, floor ident.Seq) []ident.Seq {
	for s := max(floor, 1); s < new.Seq; s++ {
		if r.Obsoletes(obsolete.Msg{Sender: new.Sender, Seq: s}, new) {
			dst = append(dst, s)
		}
	}
	return dst
}

// ruleStreams synthesises the universe of a rules model: senders p1..pS
// with seqs 1..depth.
func ruleStreams(senders, depth int) []Stream {
	var out []Stream
	for s := 0; s < senders; s++ {
		st := Stream{Sender: senderPID(s)}
		for i := 1; i <= depth; i++ {
			st.Msgs = append(st.Msgs, obsolete.Msg{Sender: st.Sender, Seq: seq(i)})
		}
		out = append(out, st)
	}
	return out
}
