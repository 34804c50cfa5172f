package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteTo serialises the trace in a line-oriented text format:
//
//	# svs-trace v1
//	rounds 11696
//	roundspersec 30
//	active <r> <count>
//	ev <round> c|u|d <item>
//
// The format is designed so that traces extracted from a real instrumented
// game server can be fed to the tools in place of the synthetic generator.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "# svs-trace v1\nrounds %d\nroundspersec %g\n", t.Rounds, t.RoundsPerSec)); err != nil {
		return n, err
	}
	for r, a := range t.ActivePerRound {
		if err := count(fmt.Fprintf(bw, "active %d %d\n", r, a)); err != nil {
			return n, err
		}
	}
	for _, ev := range t.Events {
		var k string
		switch ev.Kind {
		case Create:
			k = "c"
		case Update:
			k = "u"
		case Destroy:
			k = "d"
		}
		if err := count(fmt.Fprintf(bw, "ev %d %s %d\n", ev.Round, k, ev.Item)); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// maxRounds bounds the rounds a trace may declare, because Read allocates
// ActivePerRound up front from that count: 1<<22 rounds is about 39 hours
// at 30 rounds/s.
const maxRounds = 1 << 22

// Read parses the format produced by WriteTo. It rejects a rounds count
// that is negative, above 1<<22 or declared twice.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // lines up to 1 MiB; the buffer grows to fit
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "rounds":
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: bad rounds", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			if v < 0 || v > maxRounds {
				return nil, fmt.Errorf("trace: line %d: rounds %d outside [0, %d]", line, v, maxRounds)
			}
			if t.ActivePerRound != nil {
				return nil, fmt.Errorf("trace: line %d: rounds declared twice", line)
			}
			t.Rounds = v
			t.ActivePerRound = make([]int, v)
		case "roundspersec":
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: bad roundspersec", line)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			t.RoundsPerSec = v
		case "active":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: bad active", line)
			}
			r, err1 := strconv.Atoi(fields[1])
			a, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || r < 0 || r >= len(t.ActivePerRound) {
				return nil, fmt.Errorf("trace: line %d: bad active entry", line)
			}
			t.ActivePerRound[r] = a
		case "ev":
			if len(fields) != 4 {
				return nil, fmt.Errorf("trace: line %d: bad ev", line)
			}
			r, err := strconv.Atoi(fields[1])
			if err != nil || r < 0 || r >= t.Rounds {
				return nil, fmt.Errorf("trace: line %d: bad round", line)
			}
			var k EventKind
			switch fields[2] {
			case "c":
				k = Create
			case "u":
				k = Update
			case "d":
				k = Destroy
			default:
				return nil, fmt.Errorf("trace: line %d: bad kind %q", line, fields[2])
			}
			item, err := strconv.ParseUint(fields[3], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			t.Events = append(t.Events, Event{Round: r, Kind: k, Item: uint32(item)})
		default:
			return nil, fmt.Errorf("trace: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
