package main

import (
	"fmt"

	"repro/internal/trace"
)

// verdict accumulates correctness-oracle violations; every violation is a
// failed operation of the run.
type verdict struct {
	count int
	first []string // the first few, for the report
}

func (v *verdict) addf(format string, args ...any) {
	v.count++
	if len(v.first) < 8 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

// checkReceiver replays what one receiver delivered against what the sender
// multicast. delivered holds the sequence numbers in delivery order.
//
// Always: sequence numbers strictly increase and name sent messages.
// Reliable relation: every message is delivered exactly once.
// Game relation (SVS): a message may be skipped only if it is an Update
// and a later Update of the same item is delivered before that item is
// destroyed or re-created — so every Create, Destroy and marker is
// delivered and, per item, the last delivered Update is the last one sent.
func checkReceiver(who string, log []sentMsg, delivered []uint32, reliable bool, v *verdict) {
	var prev uint32
	for i, seq := range delivered {
		if seq <= prev {
			v.addf("%s: delivery %d out of order: seq %d after %d", who, i, seq, prev)
			return
		}
		if int(seq) > len(log) {
			v.addf("%s: delivered seq %d was never sent (last sent %d)", who, seq, len(log))
			return
		}
		prev = seq
	}
	// uncovered[item] is the first skipped Update of item still waiting for
	// a delivered Update to cover it.
	uncovered := make(map[uint32]uint32)
	di := 0
	for i, rec := range log {
		seq := uint32(i + 1)
		if di < len(delivered) && delivered[di] == seq {
			di++
			switch trace.EventKind(rec.kind) {
			case trace.Update:
				delete(uncovered, rec.item)
			case trace.Create, trace.Destroy:
				if skipped, ok := uncovered[rec.item]; ok {
					v.addf("%s: update seq %d of item %d skipped with no covering update before seq %d", who, skipped, rec.item, seq)
					delete(uncovered, rec.item)
				}
			}
			continue
		}
		switch {
		case reliable:
			v.addf("%s: seq %d not delivered under the reliable relation", who, seq)
		case trace.EventKind(rec.kind) == trace.Update:
			if _, ok := uncovered[rec.item]; !ok {
				uncovered[rec.item] = seq
			}
		default:
			v.addf("%s: reliable message seq %d (kind %d, item %d) not delivered", who, seq, rec.kind, rec.item)
		}
	}
	for item, skipped := range uncovered {
		v.addf("%s: last update of item %d not delivered (seq %d skipped, nothing later covers it)", who, item, skipped)
	}
}
