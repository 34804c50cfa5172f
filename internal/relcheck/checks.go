package relcheck

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/obsolete"
	"repro/internal/queue"
)

// Violation is one counterexample with its minimal witness, rendered
// nccheck-style ("VIOLATION: sender-local: p1:1 ≺ p2:2 crosses senders
// p1→p2").
type Violation struct {
	Family string // laws | confluence
	Check  string // irreflexivity, sender-local, purge-safety, ...
	// Witness is the minimal counterexample, human-readable.
	Witness string
}

func (v Violation) String() string { return fmt.Sprintf("VIOLATION: %s: %s", v.Check, v.Witness) }

// CheckResult is the outcome of one check.
type CheckResult struct {
	Family string
	Name   string
	// Checked counts the objects examined: messages, pairs, triples or
	// interleavings, per the check.
	Checked int
	// Detail annotates coverage ("sampled", "within window 4", ...).
	Detail string
	// Skipped means the check does not apply to this model (transitivity
	// not claimed).
	Skipped bool
	// Violations holds at most one minimal witness per check.
	Violations []Violation
}

// Report is the outcome of verifying one model.
type Report struct {
	Model   *Model
	Checks  []CheckResult
	Related int // ordered pairs the relation relates, a universe stat
}

// OK reports whether every check passed.
func (r *Report) OK() bool {
	for _, c := range r.Checks {
		if len(c.Violations) > 0 {
			return false
		}
	}
	return true
}

// Violations flattens every check's violations.
func (r *Report) Violations() []Violation {
	var out []Violation
	for _, c := range r.Checks {
		out = append(out, c.Violations...)
	}
	return out
}

// Run exhaustively verifies the model and returns the report. The universe
// is finite, so every answer is a proof over the model: PASS means no
// counterexample exists within the modelled domain (and, for sampled
// confluence coverage, within the visited interleavings — the report says
// which).
func Run(m *Model) *Report {
	r := &Report{Model: m}
	msgs := m.Msgs()
	for _, a := range msgs {
		for _, b := range msgs {
			if a.ID() != b.ID() && m.Rel.Obsoletes(a, b) {
				r.Related++
			}
		}
	}
	r.Checks = append(r.Checks, checkIrreflexivity(m, msgs))
	r.Checks = append(r.Checks, checkAntisymmetry(m, msgs))
	r.Checks = append(r.Checks, checkTransitivity(m, msgs))
	r.Checks = append(r.Checks, checkSenderLocal(m, msgs))
	r.Checks = append(r.Checks, checkPurgeSafety(m, msgs))
	return r
}

// ---- Laws (strict partial order, §3.2) -------------------------------------

func checkIrreflexivity(m *Model, msgs []obsolete.Msg) CheckResult {
	res := CheckResult{Family: "laws", Name: "irreflexivity"}
	for _, a := range msgs {
		res.Checked++
		if m.Rel.Obsoletes(a, a) {
			res.Violations = append(res.Violations, Violation{
				Family: res.Family, Check: res.Name,
				Witness: fmt.Sprintf("%s ≺ %s relates a message to itself", msgStr(a), msgStr(a)),
			})
			return res
		}
	}
	return res
}

func checkAntisymmetry(m *Model, msgs []obsolete.Msg) CheckResult {
	res := CheckResult{Family: "laws", Name: "antisymmetry"}
	for i, a := range msgs {
		for _, b := range msgs[i+1:] {
			res.Checked++
			if m.Rel.Obsoletes(a, b) && m.Rel.Obsoletes(b, a) {
				res.Violations = append(res.Violations, Violation{
					Family: res.Family, Check: res.Name,
					Witness: fmt.Sprintf("%s ≺ %s and %s ≺ %s", msgStr(a), msgStr(b), msgStr(b), msgStr(a)),
				})
				return res
			}
		}
	}
	return res
}

func checkTransitivity(m *Model, msgs []obsolete.Msg) CheckResult {
	res := CheckResult{Family: "laws", Name: "transitivity"}
	if !m.Transitive {
		res.Skipped = true
		res.Detail = "not claimed"
		return res
	}
	if m.TransWindow > 0 {
		res.Detail = fmt.Sprintf("within window %d", m.TransWindow)
	}
	for _, a := range msgs {
		for _, b := range msgs {
			if !m.Rel.Obsoletes(a, b) {
				continue
			}
			for _, c := range msgs {
				if !m.Rel.Obsoletes(b, c) {
					continue
				}
				if m.TransWindow > 0 &&
					(a.Sender != c.Sender || uint64(c.Seq-a.Seq) > uint64(m.TransWindow)) {
					continue // the encoding truncates closure here
				}
				res.Checked++
				if !m.Rel.Obsoletes(a, c) {
					res.Violations = append(res.Violations, Violation{
						Family: res.Family, Check: res.Name,
						Witness: fmt.Sprintf("%s ≺ %s ≺ %s but %s ⊀ %s",
							msgStr(a), msgStr(b), msgStr(c), msgStr(a), msgStr(c)),
					})
					return res
				}
			}
		}
	}
	return res
}

// checkSenderLocal verifies that obsolescence is per sender: the relation
// relates an older message to a newer one of the same sender and nothing
// else. The protocol never asks about any other pair (obsolete.Relation),
// so a relation that relates one silently purges less than it says.
func checkSenderLocal(m *Model, msgs []obsolete.Msg) CheckResult {
	res := CheckResult{Family: "laws", Name: "sender-local"}
	for _, a := range msgs {
		for _, b := range msgs {
			if a.ID() == b.ID() {
				continue
			}
			res.Checked++
			if !m.Rel.Obsoletes(a, b) {
				continue
			}
			switch {
			case a.Sender != b.Sender:
				res.Violations = append(res.Violations, Violation{
					Family: res.Family, Check: res.Name,
					Witness: fmt.Sprintf("%s ≺ %s crosses senders %s→%s",
						msgStr(a), msgStr(b), a.Sender, b.Sender),
				})
				return res
			case a.Seq >= b.Seq:
				res.Violations = append(res.Violations, Violation{
					Family: res.Family, Check: res.Name,
					Witness: fmt.Sprintf("%s ≺ %s relates against sequence order",
						msgStr(a), msgStr(b)),
				})
				return res
			}
		}
	}
	return res
}

// ---- Confluence (purge ⇄ deliver) ------------------------------------------

// runExecution feeds arrivals through a fresh queue under rel, every arrival
// purging as it comes, exactly like the protocol (AppendPurge), then
// delivers (pops) everything, returning the delivery sequence.
func runExecution(rel obsolete.Relation, arrivals []obsolete.Msg) []obsolete.MsgID {
	q := queue.New(rel, 0)
	for _, m := range arrivals {
		_, _ = q.AppendPurge(queue.Item{Kind: queue.Data, View: 1, Meta: m}) // unbounded capacity: cannot fail
	}
	var out []obsolete.MsgID
	for it := q.PeekHead(); it != nil; it = q.PeekHead() {
		out = append(out, it.Meta.ID())
		q.PopHead()
	}
	return out
}

// unsafePurge returns a message of arrivals that runExecution under rel
// purged without delivering anything that covers it under closure — a purge
// that does not commute with delivery.
func unsafePurge(rel obsolete.Relation, closure *check.Closure, arrivals []obsolete.Msg) (obsolete.Msg, bool) {
	delivered := make(map[obsolete.MsgID]bool, len(arrivals))
	for _, id := range runExecution(rel, arrivals) {
		delivered[id] = true
	}
	for _, a := range arrivals {
		if !closure.CoveredByAny(a.ID(), delivered) {
			return a, true
		}
	}
	return obsolete.Msg{}, false
}

// checkPurgeSafety runs the queue under the model's relation over every
// interleaving and checks that each purged message is covered by a delivered
// one under the reflexive-transitive closure (internal/check.Closure).
func checkPurgeSafety(m *Model, msgs []obsolete.Msg) CheckResult {
	res := CheckResult{Family: "confluence", Name: "purge safety"}
	closure := check.NewClosure(m.Rel, msgs)
	unsafe := func(arrivals []obsolete.Msg) bool { _, bad := unsafePurge(m.Rel, closure, arrivals); return bad }
	visited, exhaustive := forEachInterleaving(m.Streams, m.MaxInterleavings, func(arrivals []obsolete.Msg) bool {
		if !unsafe(arrivals) {
			return true
		}
		w := minimize(arrivals, unsafe)
		culprit, _ := unsafePurge(m.Rel, closure, w)
		res.Violations = append(res.Violations, Violation{
			Family: res.Family, Check: "purge-safety",
			Witness: fmt.Sprintf("arrivals %s purge %s but deliver nothing that covers it — purging does not commute with delivery",
				msgsStr(w), msgStr(culprit)),
		})
		return false
	})
	res.Checked = visited
	if !exhaustive {
		res.Detail = "sampled"
	}
	return res
}

// minimize greedily shrinks an arrival sequence while pred keeps failing
// (delta-debugging with single-message removals to a fixpoint), yielding
// the minimal witness the report prints.
func minimize(arrivals []obsolete.Msg, pred func([]obsolete.Msg) bool) []obsolete.Msg {
	w := append([]obsolete.Msg(nil), arrivals...)
	for shrunk := true; shrunk; {
		shrunk = false
		for i := 0; i < len(w); i++ {
			cand := append(append([]obsolete.Msg(nil), w[:i]...), w[i+1:]...)
			if pred(cand) {
				w = cand
				shrunk = true
				break
			}
		}
	}
	return w
}
