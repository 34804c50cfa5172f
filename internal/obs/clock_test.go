package obs

import (
	"testing"
	"time"
)

func TestWallClockTicks(t *testing.T) {
	var c Clock = Wall{}
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(2 * time.Second):
		t.Fatal("wall ticker never fired")
	}
	if c.Since(c.Now()) > time.Second {
		t.Fatal("wall Since is broken")
	}
}

func TestFakeClockAdvanceFiresTickersInOrder(t *testing.T) {
	start := time.Unix(1000, 0)
	f := NewFake(start)
	fast := f.NewTicker(10 * time.Millisecond)
	slow := f.NewTicker(25 * time.Millisecond)

	// Nothing fires without an advance.
	select {
	case <-fast.C():
		t.Fatal("ticker fired with a frozen clock")
	default:
	}

	// Advance 10ms: only the fast ticker is due, stamped at +10ms.
	f.Advance(10 * time.Millisecond)
	select {
	case ts := <-fast.C():
		if got := ts.Sub(start); got != 10*time.Millisecond {
			t.Fatalf("fast tick at +%v, want +10ms", got)
		}
	default:
		t.Fatal("fast ticker did not fire at +10ms")
	}
	select {
	case <-slow.C():
		t.Fatal("slow ticker fired before its period")
	default:
	}

	// Advance to +25ms: fast fires at +20ms, slow at +25ms.
	f.Advance(15 * time.Millisecond)
	if ts := <-fast.C(); ts.Sub(start) != 20*time.Millisecond {
		t.Fatalf("fast tick at +%v, want +20ms", ts.Sub(start))
	}
	if ts := <-slow.C(); ts.Sub(start) != 25*time.Millisecond {
		t.Fatalf("slow tick at +%v, want +25ms", ts.Sub(start))
	}
	if got := f.Now().Sub(start); got != 25*time.Millisecond {
		t.Fatalf("clock at +%v after advances, want +25ms", got)
	}
}

func TestFakeClockDropsTicksLikeTimeTicker(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	tk := f.NewTicker(time.Millisecond)
	// 10 periods with nobody draining: the 1-slot buffer keeps only the
	// earliest undelivered tick, exactly like time.Ticker.
	f.Advance(10 * time.Millisecond)
	n := 0
	for {
		select {
		case <-tk.C():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Fatalf("drained %d buffered ticks, want 1", n)
	}
}

func TestFakeClockStoppedTickerNeverFires(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	tk := f.NewTicker(time.Millisecond)
	tk.Stop()
	f.Advance(time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
}

func TestWallTimerFires(t *testing.T) {
	var c Clock = Wall{}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(2 * time.Second):
		t.Fatal("wall timer never fired")
	}
}

func TestFakeClockTimerFiresOnceAtDeadline(t *testing.T) {
	start := time.Unix(1000, 0)
	f := NewFake(start)
	tm := f.NewTimer(20 * time.Millisecond)

	f.Advance(10 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired before its deadline")
	default:
	}

	f.Advance(10 * time.Millisecond)
	select {
	case ts := <-tm.C():
		if ts.Sub(start) != 20*time.Millisecond {
			t.Fatalf("timer fired at +%v, want +20ms", ts.Sub(start))
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}

	// One-shot: no refire, ever.
	f.Advance(time.Second)
	select {
	case <-tm.C():
		t.Fatal("one-shot timer fired twice")
	default:
	}
}

func TestFakeClockTimerNonPositiveIsDue(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	zero := f.NewTimer(0)
	neg := f.NewTimer(-time.Second)
	f.Advance(0)
	for _, tm := range []Timer{zero, neg} {
		select {
		case <-tm.C():
		default:
			t.Fatal("non-positive timer not due at Advance(0)")
		}
	}
}

func TestFakeClockStoppedTimerNeverFires(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	tm := f.NewTimer(time.Millisecond)
	tm.Stop()
	f.Advance(time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
}

func TestFakeClockTimerAndTickerInterleave(t *testing.T) {
	// A timer due between two ticks fires in chronological position.
	start := time.Unix(0, 0)
	f := NewFake(start)
	tk := f.NewTicker(10 * time.Millisecond)
	tm := f.NewTimer(15 * time.Millisecond)
	f.Advance(20 * time.Millisecond)
	if ts := <-tk.C(); ts.Sub(start) != 10*time.Millisecond {
		t.Fatalf("first tick at +%v, want +10ms", ts.Sub(start))
	}
	if ts := <-tm.C(); ts.Sub(start) != 15*time.Millisecond {
		t.Fatalf("timer at +%v, want +15ms", ts.Sub(start))
	}
}

func TestFakeClockSetAndSince(t *testing.T) {
	start := time.Unix(50, 0)
	f := NewFake(start)
	f.Set(start.Add(3 * time.Second))
	if got := f.Since(start); got != 3*time.Second {
		t.Fatalf("Since = %v, want 3s", got)
	}
}

func TestNilObsFallsBackToWallClock(t *testing.T) {
	var o *Obs
	if _, ok := o.Clock().(Wall); !ok {
		t.Fatalf("nil Obs clock = %T, want Wall", o.Clock())
	}
	if o.Registry() != nil || o.Events() != nil || o.With(L("a", "b")) != nil {
		t.Fatal("nil Obs must stay nil through derivation")
	}
	o.Histogram("x", DurationBuckets).Observe(1) // must not panic
	o.AddSource(func(Emit) { t.Error("a nil Obs called its source") })
}
