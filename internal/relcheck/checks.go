package relcheck

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/queue"
)

// Violation is one counterexample with its minimal witness, rendered
// nccheck-style ("VIOLATION: sender-local: p1:1 ≺ p2:2 crosses senders
// p1→p2").
type Violation struct {
	Family string // laws | capabilities | confluence
	Check  string // irreflexivity, sender-local, confluence, ...
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
	// Detail annotates coverage ("sampled", "index inactive", ...).
	Detail string
	// Skipped means the check does not apply to this model (capability
	// not declared, transitivity not claimed).
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
	r.Checks = append(r.Checks, checkListed(m, msgs))
	r.Checks = append(r.Checks, checkConfluence(m, msgs)...)
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

// ---- Capabilities (purge-index declarations) -------------------------------

func checkSenderLocal(m *Model, msgs []obsolete.Msg) CheckResult {
	res := CheckResult{Family: "capabilities", Name: "sender-local"}
	if !m.SenderLocal {
		res.Skipped = true
		res.Detail = "not declared"
		return res
	}
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

// checkListed verifies the Listed capability: for every message of the
// universe, the sequence numbers the relation reads off its annotation are
// exactly those of the same-sender messages it obsoletes — one listed too
// many and the queue purges a message nothing covers, one too few and the
// listed lookup keeps what the scan would purge.
func checkListed(m *Model, msgs []obsolete.Msg) CheckResult {
	res := CheckResult{Family: "capabilities", Name: "listed"}
	l := obsolete.CapsOf(m.Rel).Listed
	if l == nil {
		res.Skipped = true
		res.Detail = "not declared"
		return res
	}
	for _, b := range msgs {
		listed := make(map[ident.Seq]bool)
		for _, s := range l.AppendObsoleted(nil, b, 0) {
			listed[s] = true
		}
		for _, a := range msgs {
			if a.Sender != b.Sender || a.ID() == b.ID() {
				continue // cross-sender reach is sender-local's to report
			}
			res.Checked++
			if obs := m.Rel.Obsoletes(a, b); obs != listed[a.Seq] {
				how := "lists"
				if obs {
					how = "omits"
				}
				res.Violations = append(res.Violations, Violation{
					Family: res.Family, Check: res.Name,
					Witness: fmt.Sprintf("%s %s %s but %s ≺ %s is %v",
						msgStr(b), how, msgStr(a), msgStr(a), msgStr(b), obs),
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

// scanRelation strips rel's capability declarations so internal/queue takes
// the linear-scan reference path.
func scanRelation(rel obsolete.Relation) obsolete.Relation {
	return obsolete.Func{Label: rel.Name() + "/scan", F: rel.Obsoletes}
}

func sameIDs(a, b []obsolete.MsgID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkConfluence(m *Model, msgs []obsolete.Msg) []CheckResult {
	idx := CheckResult{Family: "confluence", Name: "indexed ≡ scan"}
	safe := CheckResult{Family: "confluence", Name: "purge safety"}
	if !obsolete.CapsOf(m.Rel).SenderLocal {
		idx.Detail = "index inactive — relation declares no capabilities"
	}

	scanRel := scanRelation(m.Rel)
	// The closure is built over the whole universe with the capability
	// declarations stripped, so coverage follows the relation's actual
	// behaviour (including cross-sender edges) rather than its claims.
	closure := check.NewClosure(scanRel, msgs)

	// divergence: the indexed and scan executions deliver different
	// sequences for this arrival order.
	divergence := func(arrivals []obsolete.Msg) bool {
		return !sameIDs(runExecution(m.Rel, arrivals), runExecution(scanRel, arrivals))
	}
	// unsafe: some message fed to the scan execution was purged without a
	// delivered message covering it — the purge did not commute with
	// delivery.
	unsafeMsg := func(arrivals []obsolete.Msg) (obsolete.Msg, bool) {
		delivered := runExecution(scanRel, arrivals)
		set := make(map[obsolete.MsgID]bool, len(delivered))
		for _, id := range delivered {
			set[id] = true
		}
		for _, a := range arrivals {
			if !set[a.ID()] && !closure.CoveredByAny(a.ID(), set) {
				return a, true
			}
		}
		return obsolete.Msg{}, false
	}

	visited, exhaustive := forEachInterleaving(m.Streams, m.MaxInterleavings, func(arrivals []obsolete.Msg) bool {
		if len(idx.Violations) == 0 && divergence(arrivals) {
			w := minimize(arrivals, divergence)
			got := runExecution(m.Rel, w)
			want := runExecution(scanRel, w)
			idx.Violations = append(idx.Violations, Violation{
				Family: idx.Family, Check: "confluence",
				Witness: fmt.Sprintf("arrivals %s deliver %s indexed vs %s scan — the declared capabilities corrupt the purge index",
					msgsStr(w), idsStr(got), idsStr(want)),
			})
		}
		if len(safe.Violations) == 0 {
			if _, bad := unsafeMsg(arrivals); bad {
				w := minimize(arrivals, func(a []obsolete.Msg) bool { _, b := unsafeMsg(a); return b })
				culprit, _ := unsafeMsg(w)
				safe.Violations = append(safe.Violations, Violation{
					Family: safe.Family, Check: "purge-safety",
					Witness: fmt.Sprintf("arrivals %s purge %s but deliver nothing that covers it — purging does not commute with delivery",
						msgsStr(w), msgStr(culprit)),
				})
			}
		}
		return len(idx.Violations) == 0 || len(safe.Violations) == 0
	})
	idx.Checked, safe.Checked = visited, visited
	if !exhaustive {
		detail := "sampled"
		if idx.Detail != "" {
			detail = idx.Detail + ", sampled"
		}
		idx.Detail = detail
		safe.Detail = "sampled"
	}
	return []CheckResult{idx, safe}
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
