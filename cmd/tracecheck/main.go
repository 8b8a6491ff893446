// Command tracecheck validates a structured JSONL event trace produced
// by the -tracefile flag of lsopc/benchjson (or any obs.JSONLSink
// stream). It fails with a non-zero exit when a line is not valid JSON,
// an event carries no type, or the sink-assigned sequence numbers are
// not strictly increasing — the integrity invariants concurrent
// sessions rely on. Session-scoped events (iterations, corners, spans,
// health, level/tile/stitch, cancelled, checkpoint) must carry their
// run id — the trace field live consumers key on — and each run's
// iteration numbers must be strictly increasing, the invariant the SSE
// stream and run registry rely on. Tiled-run events carry structural
// invariants of their own: tile_start/tile_done must name a tile
// ordinal ≥ 1, and stitch_pass must name a pass ≥ 1 over ≥ 1
// re-optimized tiles. Cancellation events must carry their cause
// message, and checkpoint events must report ≥ 1 captured state fields.
// Event kinds outside the taxonomy are counted and reported (a schema
// drift signal) instead of silently passing; -strict turns them into a
// failure. With -require it additionally asserts that given event types
// are present, so CI can prove a run actually exercised the
// instrumented layers.
//
// Usage:
//
//	tracecheck run.jsonl
//	tracecheck -require iteration,corner,span run.jsonl
//	tracecheck -strict run.jsonl               # unknown event kinds fail
//	lsopc -case B1 -tracefile /dev/stdout ... | tracecheck -
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"lsopc/internal/obs"
)

func main() {
	require := flag.String("require", "", "comma-separated event types that must appear at least once")
	strict := flag.Bool("strict", false, "fail when the trace contains event kinds outside the known taxonomy")
	quiet := flag.Bool("q", false, "suppress the per-type summary")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-require types] [-strict] <trace.jsonl | ->")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	name := flag.Arg(0)
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	counts, unknown, err := check(in)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		types := make([]string, 0, len(counts))
		for t := range counts {
			types = append(types, t)
		}
		sort.Strings(types)
		total := 0
		for _, t := range types {
			marker := ""
			if unknown[t] > 0 {
				marker = "  (UNKNOWN kind)"
			}
			fmt.Printf("%-12s %d%s\n", t, counts[t], marker)
			total += counts[t]
		}
		fmt.Printf("%-12s %d\n", "total", total)
	}
	if len(unknown) > 0 {
		kinds := make([]string, 0, len(unknown))
		n := 0
		for t, c := range unknown {
			kinds = append(kinds, t)
			n += c
		}
		sort.Strings(kinds)
		msg := fmt.Errorf("%d event(s) of unknown kind(s) %s — taxonomy drift? (obs event constants vs this trace)",
			n, strings.Join(kinds, ", "))
		if *strict {
			fatal(msg)
		}
		fmt.Fprintln(os.Stderr, "tracecheck: warning:", msg)
	}
	if *require != "" {
		var missing []string
		for _, t := range strings.Split(*require, ",") {
			t = strings.TrimSpace(t)
			if t != "" && counts[t] == 0 {
				missing = append(missing, t)
			}
		}
		if len(missing) > 0 {
			fatal(fmt.Errorf("required event types missing from trace: %s", strings.Join(missing, ", ")))
		}
	}
}

// knownTypes is the event taxonomy (DESIGN.md §9); anything else in a
// trace is counted as unknown.
var knownTypes = map[string]bool{
	obs.EventIteration:   true,
	obs.EventCorner:      true,
	obs.EventSpan:        true,
	obs.EventProgress:    true,
	obs.EventHealth:      true,
	obs.EventLevelSwitch: true,
	obs.EventTileStart:   true,
	obs.EventTileDone:    true,
	obs.EventStitchPass:  true,
	obs.EventCancelled:   true,
	obs.EventCheckpoint:  true,
	obs.EventCapture:     true,
}

// check validates every line of the stream and tallies events per type;
// the second map tallies the subset whose kind is outside the taxonomy.
func check(in io.Reader) (counts, unknown map[string]int, err error) {
	counts = map[string]int{}
	unknown = map[string]int{}
	// lastIter tracks the most recent iteration number per run id to
	// enforce per-run monotonicity (stitch re-runs and resumed runs use
	// iteration offsets precisely to preserve it).
	lastIter := map[string]int{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	lastSeq := int64(0)
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			return nil, nil, fmt.Errorf("line %d: empty line", line)
		}
		var e obs.Event
		if err := json.Unmarshal(text, &e); err != nil {
			return nil, nil, fmt.Errorf("line %d: invalid JSON: %v", line, err)
		}
		if e.Type == "" {
			return nil, nil, fmt.Errorf("line %d: event has no type", line)
		}
		if !knownTypes[e.Type] {
			unknown[e.Type]++
		} else if e.Type != obs.EventProgress && e.Trace == "" {
			return nil, nil, fmt.Errorf("line %d: %s event without a run id (trace)", line, e.Type)
		}
		if e.Seq != 0 {
			if e.Seq <= lastSeq {
				return nil, nil, fmt.Errorf("line %d: seq %d not strictly increasing after %d", line, e.Seq, lastSeq)
			}
			lastSeq = e.Seq
		}
		switch e.Type {
		case obs.EventIteration:
			if last, seen := lastIter[e.Trace]; seen && e.Iter <= last {
				return nil, nil, fmt.Errorf("line %d: run %s iteration %d not increasing after %d",
					line, e.Trace, e.Iter, last)
			}
			lastIter[e.Trace] = e.Iter
		case obs.EventTileStart, obs.EventTileDone:
			if e.Tile < 1 {
				return nil, nil, fmt.Errorf("line %d: %s without a tile ordinal (tile=%d)", line, e.Type, e.Tile)
			}
			if e.Pass < 0 {
				return nil, nil, fmt.Errorf("line %d: %s with negative pass %d", line, e.Type, e.Pass)
			}
		case obs.EventStitchPass:
			if e.Pass < 1 {
				return nil, nil, fmt.Errorf("line %d: stitch_pass with pass %d, want ≥ 1", line, e.Pass)
			}
			if e.N < 1 {
				return nil, nil, fmt.Errorf("line %d: stitch_pass re-optimizing %d tiles, want ≥ 1", line, e.N)
			}
		case obs.EventCancelled:
			if e.Msg == "" {
				return nil, nil, fmt.Errorf("line %d: cancelled event without a cause message", line)
			}
		case obs.EventCheckpoint:
			if e.N < 1 {
				return nil, nil, fmt.Errorf("line %d: checkpoint event capturing %d state fields, want ≥ 1", line, e.N)
			}
		case obs.EventCapture:
			if e.Msg == "" {
				return nil, nil, fmt.Errorf("line %d: capture event without a trigger reason", line)
			}
			if e.Name == "" {
				return nil, nil, fmt.Errorf("line %d: capture event without a bundle directory", line)
			}
			if e.N < 1 {
				return nil, nil, fmt.Errorf("line %d: capture event listing %d bundle files, want ≥ 1", line, e.N)
			}
		}
		counts[e.Type]++
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if line == 0 {
		return nil, nil, fmt.Errorf("trace is empty")
	}
	return counts, unknown, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}
