package repro_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obsolete"
)

func init() {
	// The wire path no longer uses gob (the fallback codec was removed),
	// so the baseline benchmark registers the types it round-trips
	// through interface values itself.
	gob.Register(core.DataMsg{})
	gob.Register(core.InitMsg{})
	gob.Register(core.PredMsg{})
	gob.Register(core.CreditMsg{})
	gob.Register(core.StableMsg{})
}

// wireMessages is a representative mix of protocol traffic: mostly DATA
// with a realistic payload, plus the control messages of a view change
// and stability gossip.
func wireMessages() []any {
	payload := bytes.Repeat([]byte("svs"), 67) // ~200 B application payload
	annot := []byte{1, 2, 3, 4, 5, 6, 7, 8}    // k=64 bitmap annotation
	dm := func(seq ident.Seq) core.DataMsg {
		return core.DataMsg{
			View:    7,
			Meta:    obsolete.Msg{Sender: "replica-1", Seq: seq, Annot: annot},
			Payload: payload,
		}
	}
	pred := core.PredMsg{Change: ident.ViewRef{ID: 8}, Msgs: make([]core.DataMsg, 0, 16)}
	for i := 0; i < 16; i++ {
		pred.Msgs = append(pred.Msgs, dm(ident.Seq(i+1)))
	}
	recv := make(map[ident.PID]ident.Seq, 8)
	for i := 0; i < 8; i++ {
		recv[ident.PID(fmt.Sprintf("replica-%d", i))] = ident.Seq(1000 + i)
	}
	return []any{
		dm(1), dm(2), dm(3), dm(4), // DATA dominates steady-state traffic
		core.CreditMsg{View: 7, Credits: 16},
		core.StableMsg{View: 7, Recv: recv},
		core.InitMsg{View: core.View{ID: 7}, Leave: []ident.PID{"replica-3"}},
		pred,
	}
}

// BenchmarkWireCodec measures encode+decode of the wire-message mix on
// the hand-rolled binary codec against the encoding/gob baseline it
// replaced (a fresh encoder/decoder per message through an interface
// value — exactly the pattern of the old consensus value path, and the
// worst case the per-connection gob stream degrades to on reconnect).
// The compare sub-benchmark reports the headline acceptance metrics:
// speedup-x (gob ns/op over binary ns/op) and allocs/op for both.
func BenchmarkWireCodec(b *testing.B) {
	msgs := wireMessages()

	binary := func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			m := msgs[i%len(msgs)]
			var err error
			buf, err = codec.Marshal(buf[:0], m)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := codec.UnmarshalBytes(buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	gobRT := func(b *testing.B) {
		b.ReportAllocs()
		type wrap struct{ M any }
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			m := msgs[i%len(msgs)]
			buf.Reset()
			if err := gob.NewEncoder(&buf).Encode(wrap{M: m}); err != nil {
				b.Fatal(err)
			}
			var out wrap
			if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("binary", binary)
	b.Run("gob", gobRT)
	// Nested testing.Benchmark deadlocks under -bench, so the comparison
	// times both paths by hand over a fixed iteration count.
	b.Run("compare", func(b *testing.B) {
		measure := func(fn func(n int), iters int) (nsPerOp, allocsPerOp float64) {
			fn(iters / 10) // warm up
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			fn(iters)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			return float64(elapsed.Nanoseconds()) / float64(iters),
				float64(after.Mallocs-before.Mallocs) / float64(iters)
		}
		binNs, binAllocs := measure(func(n int) {
			var buf []byte
			for i := 0; i < n; i++ {
				m := msgs[i%len(msgs)]
				var err error
				buf, err = codec.Marshal(buf[:0], m)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := codec.UnmarshalBytes(buf); err != nil {
					b.Fatal(err)
				}
			}
		}, 20000)
		gobNs, gobAllocs := measure(func(n int) {
			type wrap struct{ M any }
			var buf bytes.Buffer
			for i := 0; i < n; i++ {
				m := msgs[i%len(msgs)]
				buf.Reset()
				if err := gob.NewEncoder(&buf).Encode(wrap{M: m}); err != nil {
					b.Fatal(err)
				}
				var out wrap
				if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
					b.Fatal(err)
				}
			}
		}, 5000)
		b.ReportMetric(gobNs/binNs, "speedup-x")
		b.ReportMetric(binNs, "binary-ns/op")
		b.ReportMetric(gobNs, "gob-ns/op")
		b.ReportMetric(binAllocs, "binary-allocs/op")
		b.ReportMetric(gobAllocs, "gob-allocs/op")
		for i := 0; i < b.N; i++ {
		} // the comparison itself is the measurement
	})
}
