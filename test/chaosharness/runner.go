package chaosharness

import (
	"fmt"
	"sort"
	"time"
)

// Runner applies a chaos schedule to a live cluster, keeping its own
// view of what the membership of every group should be, settling the
// cluster after every disruptive action, and repairing the divergences
// real fault timing produces (a node evicted a beat later than planned,
// a victim that never noticed its expulsion).
type Runner struct {
	C      *Cluster
	Groups int
	// Logf receives progress lines (testing.T.Logf fits). Nil is silent.
	Logf func(format string, args ...any)
	// SettleTimeout bounds each convergence wait. Default 60s.
	SettleTimeout time.Duration

	// members[g] is the runner's expected membership, kept in lockstep
	// with the generator's model.
	members map[int][]string
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

func (r *Runner) settleTimeout() time.Duration {
	if r.SettleTimeout > 0 {
		return r.SettleTimeout
	}
	return 60 * time.Second
}

// Bootstrap starts the founding nodes and creates every group on all of
// them, then waits for the initial views.
func (r *Runner) Bootstrap(cfg GenConfig) error {
	cfg.defaults()
	r.Groups = cfg.Groups
	r.members = make(map[int][]string)
	var founders []string
	for i := 0; i < cfg.Nodes; i++ {
		founders = append(founders, NodeName(i))
	}
	for _, n := range founders {
		if _, err := r.C.Start(n); err != nil {
			return err
		}
	}
	if err := r.C.Introduce(); err != nil {
		return err
	}
	for g := 1; g <= cfg.Groups; g++ {
		r.members[g] = append([]string(nil), founders...)
		for _, n := range founders {
			if err := r.C.Post(n, "/create", map[string]any{"group": g, "members": founders}); err != nil {
				return err
			}
		}
		if err := r.settle(g); err != nil {
			return err
		}
	}
	return nil
}

// Run applies every action in order.
func (r *Runner) Run(actions []Action) error {
	for i, a := range actions {
		r.logf("action %d/%d: %s", i+1, len(actions), a)
		if err := r.apply(a); err != nil {
			return fmt.Errorf("action %d (%s): %w", i+1, a, err)
		}
	}
	return nil
}

func (r *Runner) apply(a Action) error {
	switch a.Kind {
	case ActMcast:
		// Best-effort: the target may have been evicted or replaced by
		// fault timing the generator could not foresee; skipping keeps
		// the stream deterministic while the run stays valid.
		if err := r.C.Post(a.Node, "/multicast", map[string]any{"group": a.Group, "count": a.Count}); err != nil {
			r.logf("  mcast skipped: %v", err)
		}
		return nil

	case ActJoin:
		if _, err := r.C.Start(a.Node); err != nil {
			return err
		}
		if err := r.C.Introduce(); err != nil {
			return err
		}
		if err := r.C.Post(a.Node, "/join", map[string]any{
			"group": a.Group, "contacts": r.members[a.Group]}); err != nil {
			return err
		}
		r.members[a.Group] = insert(r.members[a.Group], a.Node)
		return r.settle(a.Group)

	case ActLeave:
		if err := r.C.Post(a.Node, "/leave", map[string]any{"group": a.Group}); err != nil {
			r.logf("  leave skipped: %v", err)
			return nil
		}
		r.members[a.Group] = remove(r.members[a.Group], a.Node)
		return r.settle(a.Group)

	case ActKill:
		groups := r.groupsOf(a.Node)
		if err := r.C.Kill(a.Node); err != nil {
			r.logf("  kill skipped: %v", err)
			return nil
		}
		for _, g := range groups {
			r.members[g] = remove(r.members[g], a.Node)
			if err := r.settle(g); err != nil {
				return err
			}
		}
		return nil

	case ActRestart:
		if _, err := r.C.Start(a.Node); err != nil {
			return err
		}
		if err := r.C.Introduce(); err != nil {
			return err
		}
		for _, g := range a.Groups {
			if len(r.members[g]) == 0 {
				continue
			}
			if err := r.C.Post(a.Node, "/join", map[string]any{
				"group": g, "contacts": r.members[g]}); err != nil {
				return err
			}
			r.members[g] = insert(r.members[g], a.Node)
			if err := r.settle(g); err != nil {
				return err
			}
		}
		return nil

	case ActPartition:
		return r.partition(a)

	case ActHeal:
		return r.healPartition(a)

	case ActReboot:
		return r.reboot(a)

	case ActBlock:
		if err := r.C.Post(a.Node, "/block", map[string]any{"group": a.Group, "blocked": true}); err != nil {
			r.logf("  block skipped: %v", err)
			return nil
		}
		time.Sleep(time.Duration(a.Ms) * time.Millisecond)
		if err := r.C.Post(a.Node, "/block", map[string]any{"group": a.Group, "blocked": false}); err != nil {
			r.logf("  unblock failed: %v", err)
		}
		return nil
	}
	return fmt.Errorf("unknown action kind %v", a.Kind)
}

// partition cuts the victim off in both directions, waits out the
// configured window (longer than the failure-detector timeout, so the
// survivors evict it), heals, and replaces the victim with a fresh
// joiner — covering suspicion, eviction by majority, and (without
// partition healing) the expelled notification reaching the victim after
// the heal.
func (r *Runner) partition(a Action) error {
	victim := a.Node
	groups := r.groupsOf(victim)
	others := remove(r.C.Alive(), victim)
	if r.C.Proc(victim) == nil {
		r.logf("  partition skipped: %s not running", victim)
		others = nil
		groups = nil
	} else {
		if err := r.C.Post(victim, "/fault", map[string]any{"op": "cut", "peers": others}); err != nil {
			return err
		}
		for _, o := range others {
			if err := r.C.Post(o, "/fault", map[string]any{"op": "cut", "peers": []string{victim}}); err != nil {
				return err
			}
		}
		time.Sleep(time.Duration(a.Ms) * time.Millisecond)
		if r.C.Options().Heal {
			// With healing on, the cut-off victim has split into a lineage of
			// its own and, once reachable, merges back — legitimate, but it
			// races the eviction this action converges on: a probe tick in
			// the few milliseconds between the last heal below and the
			// retirement further down re-admitted it in about 1 run in 16.
			// Retire it while it is still cut off, instead of healing it.
			r.retire(victim)
		} else if err := r.C.Post(victim, "/fault", map[string]any{"op": "heal"}); err != nil {
			r.logf("  heal %s failed: %v", victim, err)
		}
		// Heal everywhere else.
		for _, o := range others {
			if err := r.C.Post(o, "/fault", map[string]any{"op": "heal"}); err != nil {
				r.logf("  heal %s failed: %v", o, err)
			}
		}
	}

	// The survivors should have evicted the victim; converge on that.
	for _, g := range groups {
		r.members[g] = remove(r.members[g], victim)
		if err := r.settle(g); err != nil {
			return err
		}
	}
	// Retire the victim: normally it noticed its expulsion after the
	// heal; if it never does (it may sit in a wedged consensus round on
	// the minority side), a graceful quit-with-kill-fallback retires it
	// anyway.
	r.retire(victim)

	// And bring in the replacement.
	if len(groups) > 0 {
		if _, err := r.C.Start(a.Repl); err != nil {
			return err
		}
		if err := r.C.Introduce(); err != nil {
			return err
		}
		for _, g := range groups {
			if len(r.members[g]) == 0 {
				continue
			}
			if err := r.C.Post(a.Repl, "/join", map[string]any{
				"group": g, "contacts": r.members[g]}); err != nil {
				return err
			}
			r.members[g] = insert(r.members[g], a.Repl)
			if err := r.settle(g); err != nil {
				return err
			}
		}
	}
	return nil
}

// retire quits node gracefully, if it is still running.
func (r *Runner) retire(node string) {
	if r.C.Proc(node) != nil {
		if err := r.C.Quit(node); err != nil {
			r.logf("  retire %s: %v", node, err)
		}
	}
}

// healPartition cuts the scheduled minority of one group away from the
// rest in both directions, lets both sides form their own views (the
// majority evicts the cut members, the minority splits into a new
// lineage), feeds divergent traffic to each side, then heals the links
// and waits for the sides to merge back into one union view — the
// partition-healing flagship scenario. Membership ends where it started.
func (r *Runner) healPartition(a Action) error {
	minority := make([]string, 0, len(a.Nodes))
	for _, n := range a.Nodes {
		if r.C.Proc(n) != nil {
			minority = append(minority, n)
		}
	}
	majority := r.members[a.Group]
	for _, n := range minority {
		majority = remove(majority, n)
	}
	if len(minority) == 0 || len(majority) == 0 {
		r.logf("  heal skipped: sides %v / %v", minority, majority)
		return nil
	}
	// Cut every minority↔majority link, both directions. Links inside
	// each side stay up so both sides keep making progress.
	for _, n := range minority {
		if err := r.C.Post(n, "/fault", map[string]any{"op": "cut", "peers": majority}); err != nil {
			return err
		}
	}
	for _, n := range majority {
		if err := r.C.Post(n, "/fault", map[string]any{"op": "cut", "peers": minority}); err != nil {
			return err
		}
	}
	// Divergent traffic: each side multicasts while the other cannot
	// hear it, so the eventual merge has real backlog to exchange.
	r.C.Post(minority[0], "/multicast", map[string]any{"group": a.Group, "count": 3})
	r.C.Post(majority[0], "/multicast", map[string]any{"group": a.Group, "count": 3})
	time.Sleep(time.Duration(a.Ms) * time.Millisecond)
	// Heal everywhere (clears all fault rules on the posted node).
	for _, n := range append(append([]string(nil), minority...), majority...) {
		if err := r.C.Post(n, "/fault", map[string]any{"op": "heal"}); err != nil {
			r.logf("  heal %s failed: %v", n, err)
		}
	}
	// The sides probe each other and merge; converge back on the full
	// membership in one view. Other groups sharing a cut link repair
	// themselves the same way.
	for g := 1; g <= r.Groups; g++ {
		if len(r.members[g]) == 0 {
			continue
		}
		if err := r.settle(g); err != nil {
			return err
		}
	}
	return nil
}

// reboot crash-stops a majority of one group at once: the surviving
// minority re-forms as a split view in its own lineage, then fresh
// incarnations join it to restore the group's size.
func (r *Runner) reboot(a Action) error {
	affected := make(map[int]bool)
	for _, n := range a.Nodes {
		groups := r.groupsOf(n)
		if err := r.C.Kill(n); err != nil {
			r.logf("  reboot kill skipped: %v", err)
			continue
		}
		for _, g := range groups {
			affected[g] = true
			r.members[g] = remove(r.members[g], n)
		}
	}
	for g := 1; g <= r.Groups; g++ {
		if affected[g] {
			if err := r.settle(g); err != nil {
				return err
			}
		}
	}
	for _, repl := range a.Repls {
		if len(r.members[a.Group]) == 0 {
			break
		}
		if _, err := r.C.Start(repl); err != nil {
			return err
		}
		if err := r.C.Introduce(); err != nil {
			return err
		}
		if err := r.C.Post(repl, "/join", map[string]any{
			"group": a.Group, "contacts": r.members[a.Group]}); err != nil {
			return err
		}
		r.members[a.Group] = insert(r.members[a.Group], repl)
		if err := r.settle(a.Group); err != nil {
			return err
		}
	}
	return nil
}

// settle waits until every expected member of group g reports the same
// installed view with exactly the expected membership. Divergence is
// repaired along the way: a member that got itself evicted (fault
// timing) is detached and dropped from the expectation.
func (r *Runner) settle(g int) error {
	deadline := time.Now().Add(r.settleTimeout())
	for {
		ok, err := r.converged(g)
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("group %d did not converge on %v within %v: %v",
				g, r.members[g], r.settleTimeout(), err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// converged polls one round; false means keep waiting. It mutates the
// expected membership when it finds a member that was expelled or died.
func (r *Runner) converged(g int) (bool, error) {
	want := r.members[g]
	if len(want) == 0 {
		return true, nil
	}
	var view, epoch uint64
	first := true
	for _, n := range want {
		st, err := r.C.Stats(n, g)
		if err != nil {
			if r.C.Proc(n) == nil {
				// Died outside the schedule (should not happen — kills go
				// through the runner) — drop it rather than wait forever.
				r.logf("  settle(%d): dropping dead member %s", g, n)
				r.members[g] = remove(r.members[g], n)
				return false, nil
			}
			return false, err
		}
		if st.Expelled {
			// Fault timing evicted it (e.g. a suspicion the schedule did
			// not plan). Detach it and stop expecting it.
			r.logf("  settle(%d): %s was expelled, detaching", g, n)
			r.C.Post(n, "/leave", map[string]any{"group": g})
			r.members[g] = remove(r.members[g], n)
			return false, nil
		}
		if st.Joining {
			return false, fmt.Errorf("%s still joining", n)
		}
		// Convergence needs the full reference to agree: after a
		// partition the sides can sit at the same numeric view id in
		// different lineages.
		if first {
			view, epoch = st.View, st.Epoch
			first = false
		} else if st.View != view || st.Epoch != epoch {
			return false, fmt.Errorf("%s at view e%x/v%d, others at e%x/v%d", n, st.Epoch, st.View, epoch, view)
		}
		got := append([]string(nil), st.Members...)
		sort.Strings(got)
		if !equal(got, want) {
			return false, fmt.Errorf("%s membership %v, want %v", n, got, want)
		}
	}
	return true, nil
}

// Finish is the end-of-run barrier: triggers a flush view change in
// every group (so the last chaos window is covered by SVS constraints),
// waits for convergence, and then for every queued multicast to drain —
// a sender still parked here is stuck, which is itself a failure.
func (r *Runner) Finish() error {
	for g := 1; g <= r.Groups; g++ {
		if len(r.members[g]) == 0 {
			continue
		}
		if err := r.C.Post(r.members[g][0], "/viewchange", map[string]any{"group": g}); err != nil {
			return fmt.Errorf("final view change group %d: %w", g, err)
		}
		if err := r.settle(g); err != nil {
			return fmt.Errorf("final settle: %w", err)
		}
	}
	deadline := time.Now().Add(r.settleTimeout())
	for g := 1; g <= r.Groups; g++ {
		for _, n := range r.members[g] {
			for {
				st, err := r.C.Stats(n, g)
				if err != nil {
					return err
				}
				if st.Queued == 0 && st.Parked == 0 {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("stuck sender: %s group %d still has %d queued (%d parked) multicasts",
						n, g, st.Queued, st.Parked)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
	return nil
}

// Members returns the runner's expected membership of group g, sorted.
func (r *Runner) Members(g int) []string {
	return append([]string(nil), r.members[g]...)
}

func (r *Runner) groupsOf(name string) []int {
	var out []int
	for g := 1; g <= r.Groups; g++ {
		for _, p := range r.members[g] {
			if p == name {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

func insert(s []string, v string) []string {
	out := append(append([]string(nil), s...), v)
	sort.Strings(out)
	return out
}

func remove(s []string, v string) []string {
	out := make([]string, 0, len(s))
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func equal(a, b []string) bool {
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
