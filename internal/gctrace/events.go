package gctrace

// The event-digest matrix: a fixed list of gctrace command lines whose -events
// output — every GC event in order, then the deterministic summary — is pinned
// by SHA-256 in EVENTS_v*.json (gcbench -events -baseline/-compare). The drift
// gates compare end states and percentiles; this one compares orderings, so a
// change that reorders two events at one instant without moving a figure
// fails it too. Host-side engine counters (-engine) are in no run's output:
// dozes, moves and inline turns may move, an event may not. The summary's
// host storage lines (hostLine) are printed but not digested, for the same
// reason.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/bench"
)

// EventsMatrix is the matrix, one gctrace command line per configuration
// (-events is implied): the five benchmarks at p=48 and at small vproc
// counts, both collectors, smvm on rack256, the server workload's burst,
// latency at two gaps and on rack256, and the serving harnesses with fault
// seeds, budgets and the three crash kinds.
var EventsMatrix = []string{
	"-bench barnes-hut -p 48",
	"-bench quicksort -p 48",
	"-bench smvm -p 48",
	"-bench dmm -p 48",
	"-bench raytracer -p 48",
	"-bench barnes-hut -p 8",
	"-bench barnes-hut -p 1",
	"-bench quicksort -p 1",
	"-bench dmm -p 2",
	"-bench raytracer -p 3",
	"-bench synthetic -p 8 -scale 2 -gc concurrent -policy single-node",
	"-bench synthetic -p 48 -policy interleaved",
	"-bench smvm -machine rack256 -p 256",
	"-bench server -p 8",
	"-latency -p 48",
	"-latency -p 48 -gc concurrent",
	"-latency -p 48 -gap 100000",
	"-latency -p 2",
	"-latency -machine rack256 -p 256",
	"-overload -p 16 -gap 40000 -admission queue -fault-seed 0xfa115afe",
	"-mempressure -p 16 -gap 40000 -admission queue -fault-seed 0x5c0ee2e1",
	"-mempressure -p 16 -gap 40000 -admission memory -budget 24",
	"-failover -p 16 -replicas 2 -crash vproc",
	"-failover -p 16 -replicas 2 -crash vproc -hedge 30000",
	"-failover -machine rack256 -p 32 -replicas 4 -crash board",
}

// eventsEvery is the number of events between two checkpoints.
const eventsEvery = 128

// EventsPoint is one configuration's digest: SHA-256 of the -events output
// less its host storage lines, and a checkpoint after every eventsEvery
// events and after the last, so a mismatch can be narrowed to a window of
// events.
type EventsPoint struct {
	Args   string `json:"args"`
	Events int    `json:"events"`
	Digest string `json:"sha256"`
	// Checkpoints are "<instant> <vproc> <hash>": the virtual instant and
	// vproc of the window's last event, and the first 16 hex digits of the
	// SHA-256 of every event line up to it.
	Checkpoints []string `json:"checkpoints"`

	// firsts holds each window's first event line, for Divergence; a
	// baseline file does not carry it.
	firsts []string
}

// Key identifies the configuration.
func (p EventsPoint) Key() string { return p.Args }

// VirtualEq reports whether the two runs printed the same output.
func (p EventsPoint) VirtualEq(o EventsPoint) bool { return p.Digest == o.Digest }

// Divergence names where this run's output first departs from want's: the
// last checkpoint the two share, with its instant and vproc, the window of
// events after it, and this run's first event in that window — or, when
// every event matches, the summary.
func (p EventsPoint) Divergence(want EventsPoint) string {
	i := 0
	for i < len(p.Checkpoints) && i < len(want.Checkpoints) && p.Checkpoints[i] == want.Checkpoints[i] {
		i++
	}
	if i == len(p.Checkpoints) && i == len(want.Checkpoints) {
		return fmt.Sprintf("all %d events match; the summary printed after them differs", p.Events)
	}
	from := i*eventsEvery + 1
	msg := "the events differ from the first window on"
	if i > 0 {
		at, vp := checkpointAt(want.Checkpoints[i-1])
		msg = fmt.Sprintf("events 1-%d match, the last at %d ns on vproc %d", i*eventsEvery, at, vp)
	}
	if i < len(want.Checkpoints) {
		at, vp := checkpointAt(want.Checkpoints[i])
		msg += fmt.Sprintf("; the baseline's events %d-%d, which end at %d ns on vproc %d, differ",
			from, min(from+eventsEvery-1, want.Events), at, vp)
	} else {
		msg += fmt.Sprintf("; the baseline has no event %d", from)
	}
	if i < len(p.firsts) {
		return msg + fmt.Sprintf("; this run's event %d is %s", from, p.firsts[i])
	}
	return msg + fmt.Sprintf("; this run has %d events", p.Events)
}

// checkpointAt parses a checkpoint's instant and vproc. The error is
// dropped: digest writes every checkpoint, and one edited by hand out of
// shape only reads as instant 0 on vproc 0 in a message.
func checkpointAt(cp string) (at int64, vproc int) {
	_, _ = fmt.Sscanf(cp, "%d %d", &at, &vproc)
	return at, vproc
}

// EventsPoints enumerates the matrix, unmeasured.
func EventsPoints() []EventsPoint {
	pts := make([]EventsPoint, len(EventsMatrix))
	for i, args := range EventsMatrix {
		pts[i].Args = args
	}
	return pts
}

// MeasureEvents runs the configuration of each of pts (EventsPoints) with
// -events on workers goroutines (bench.Run) and digests its output.
func MeasureEvents(pts []EventsPoint, workers int, progress func(string)) ([]EventsPoint, error) {
	return bench.Run(pts, workers, progress, func(pt *EventsPoint) (string, error) {
		var out, stderr bytes.Buffer
		if status := Run(append(strings.Fields(pt.Args), "-events"), &out, &stderr); status != 0 {
			return "", fmt.Errorf("gctrace %s -events: exit %d: %s", pt.Args, status, strings.TrimSpace(stderr.String()))
		}
		*pt = digest(pt.Args, out.Bytes())
		return fmt.Sprintf("%-62s %6d events  %.16s", pt.Args, pt.Events, pt.Digest), nil
	})
}

// RenderEvents is the print-mode table.
func RenderEvents(pts []EventsPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-62s %7s  %s\n", "gctrace configuration (-events)", "events", "sha256")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-62s %7d  %s\n", p.Args, p.Events, p.Digest)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// hostLine reports whether a summary line reports host storage — how many
// words of the local heaps and chunks the run holds committed — rather than
// anything the simulation did.
func hostLine(line []byte) bool {
	line = bytes.TrimSpace(line)
	return bytes.HasPrefix(line, []byte("local heaps committed ")) || bytes.HasPrefix(line, []byte("global chunks committed "))
}

// digest is the point of one run's -events output: SHA-256 of all of it but
// its host storage lines, and the checkpoints over its event lines
// ("[instant ns] vproc ...", which come before the summary) hashed again on
// their own.
func digest(args string, out []byte) EventsPoint {
	p := EventsPoint{Args: args}
	all, events := sha256.New(), sha256.New()
	var last []byte
	checkpoint := func() {
		var at int64
		var vproc int
		// last is an event line, which gctrace prints in this shape.
		_, _ = fmt.Sscanf(string(last), "[%d ns] vproc %d", &at, &vproc)
		p.Checkpoints = append(p.Checkpoints, fmt.Sprintf("%d %d %.8x", at, vproc, events.Sum(nil)))
	}
	for len(out) > 0 {
		line := out
		if i := bytes.IndexByte(out, '\n'); i >= 0 {
			line = out[:i+1]
		}
		out = out[len(line):]
		if !hostLine(line) {
			all.Write(line)
		}
		if !bytes.HasPrefix(line, []byte("[")) {
			continue
		}
		if p.Events%eventsEvery == 0 {
			p.firsts = append(p.firsts, string(bytes.TrimSpace(line)))
		}
		events.Write(line)
		p.Events++
		last = line
		if p.Events%eventsEvery == 0 {
			checkpoint()
		}
	}
	if p.Events%eventsEvery != 0 {
		checkpoint()
	}
	p.Digest = hex.EncodeToString(all.Sum(nil))
	return p
}
