package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Harness spans: the benchmark times its own calls into the engine's public
// functions from outside. Spans inside the program are a later change.
const (
	spanMulticast  = iota // one MulticastBatch call; id = first seq, n = messages
	spanDeliver           // one DeliverBatch call incl. its wait; id = first data seq returned, n = data messages
	spanViewChange        // RequestViewChange() to the last member's DeliverView; id = view id
	spanInstall           // RequestViewChange() to one member's DeliverView; id = view id
)

var spanNames = [...]string{"core.MulticastBatch", "core.DeliverBatch", "view_change", "view_install"}

type span struct {
	start, end int64 // ns since the run's time base
	id         uint64
	n          int32
	kind       uint8
	who        uint8 // member index
}

// spanBuf is one goroutine's private span list: recording takes no lock, the
// lists are merged when the run ends.
type spanBuf struct{ spans []span }

func (b *spanBuf) add(kind, who int, start, end int64, id uint64, n int) {
	b.spans = append(b.spans, span{start: start, end: end, id: id, n: int32(n), kind: uint8(kind), who: uint8(who)})
}

// maxSpansWritten bounds the trace file; the metrics use every span.
const maxSpansWritten = 200_000

type spanJSON struct {
	Name    string `json:"name"`
	Member  string `json:"member"`
	ID      uint64 `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	N       int32  `json:"n"`
}

// writeTrace writes the merged spans of a traced run to
// <dir>/trace-<workload>.json. A DeliverBatch span names as its parent the
// MulticastBatch span that carried its first message; a view_install span
// names its view_change. Spans of one request share the id.
func writeTrace(dir, workload string, bufs []*spanBuf) error {
	var all, mcasts []span
	for _, b := range bufs {
		all = append(all, b.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	for _, s := range all {
		if s.kind == spanMulticast {
			mcasts = append(mcasts, s)
		}
	}
	sort.Slice(mcasts, func(i, j int) bool { return mcasts[i].id < mcasts[j].id })
	parentOf := func(s span) string {
		switch s.kind {
		case spanDeliver:
			i := sort.Search(len(mcasts), func(i int) bool { return mcasts[i].id > s.id })
			if i > 0 && s.id < mcasts[i-1].id+uint64(mcasts[i-1].n) {
				return fmt.Sprintf("%s#%d", spanNames[spanMulticast], mcasts[i-1].id)
			}
		case spanInstall:
			return fmt.Sprintf("%s#%d", spanNames[spanViewChange], s.id)
		}
		return ""
	}
	dropped := 0
	if len(all) > maxSpansWritten {
		dropped = len(all) - maxSpansWritten
		all = all[:maxSpansWritten]
	}
	out := struct {
		Workload string     `json:"workload"`
		Dropped  int        `json:"spans_dropped"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: workload, Dropped: dropped, Spans: make([]spanJSON, 0, len(all))}
	for _, s := range all {
		out.Spans = append(out.Spans, spanJSON{
			Name: spanNames[s.kind], Member: fmt.Sprintf("p%d", s.who), ID: s.id,
			Parent: parentOf(s), StartNs: s.start, EndNs: s.end, N: s.n,
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
