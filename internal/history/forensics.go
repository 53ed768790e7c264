package history

import (
	"fmt"
	"io"
	"time"

	"github.com/hcilab/distscroll/internal/telemetry"
)

// Forensics bounds.
const (
	// maxMarks bounds the latched breach-marker list, mirroring the
	// watchdog's own breach latch.
	maxMarks = 64
	// maxPending bounds breach captures still waiting for their tail.
	maxPending = 32
	// DefaultPostWindows is the post-breach tail captured before a
	// breach's forensics fire, when the caller does not choose one.
	DefaultPostWindows = 8
	// forensicsPreWindows is how much history precedes the breach in
	// the capture (clamped to what the ring retains).
	forensicsPreWindows = 16
)

// BreachMark is a breach marker latched into the history timeline.
// Window is the global index of the window the breach was detected in
// (the OnWindow listener's window; comparable to Result.Start), so
// dashboards can place the marker on the sparklines.
type BreachMark struct {
	Rule     string  `json:"rule"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Limit    float64 `json:"limit"`
	Window   uint64  `json:"window"`
	AtMillis int64   `json:"atMillis"`
}

// Forensics is a breach's mini-postmortem: the windows leading up to the
// breach plus the configured post-breach tail, for the breach metric and
// the headline series.
type Forensics struct {
	Mark            BreachMark `json:"mark"`
	IntervalSeconds float64    `json:"intervalSeconds"`
	// Start is the global index of the first captured window.
	Start uint64  `json:"start"`
	Times []int64 `json:"times"`
	// Series holds the captured windows per series, oldest first, same
	// shape as a Query response.
	Series map[string]SeriesData `json:"series"`
	// order fixes the table column order (breach metric first).
	order []string
}

type pendingForensics struct {
	mark      BreachMark
	remaining int
	onReady   func(*Forensics)
	forensics *Forensics
}

func (p *pendingForensics) fire() {
	if p.onReady != nil && p.forensics != nil {
		p.onReady(p.forensics)
	}
}

// headlineSeries are always included in a forensics capture when
// retained, alongside the breach metric itself.
var headlineSeries = []string{
	telemetry.MetricHubDecoded,
	telemetry.MetricHubEvents,
	telemetry.MetricRFSent,
	telemetry.MetricHubE2ELatency,
	telemetry.MetricNetFrames,
	telemetry.MetricNetRingDepth,
	telemetry.MetricSimTicksPerSec,
	telemetry.MetricSimVirtualSeconds,
}

// MarkBreach latches a breach marker on the timeline and schedules a
// forensics capture: after postWindows more windows have been sampled
// (<= 0 takes DefaultPostWindows), onReady fires once — outside the
// store lock — with the pre/post-breach capture. Stop flushes captures
// still waiting, so onReady also fires (with a shorter tail) when the
// run ends inside the tail. Nil-safe; a nil onReady just latches the
// marker.
func (s *Store) MarkBreach(mark BreachMark, postWindows int, onReady func(*Forensics)) {
	if s == nil {
		return
	}
	if postWindows <= 0 {
		postWindows = DefaultPostWindows
	}
	if most := s.windows - 1; postWindows > most {
		postWindows = most
	}
	s.mu.Lock()
	if len(s.marks) < maxMarks {
		s.marks = append(s.marks, mark)
	}
	if onReady != nil && len(s.pending) < maxPending {
		s.pending = append(s.pending, &pendingForensics{
			mark:      mark,
			remaining: postWindows,
			onReady:   onReady,
		})
	}
	s.mu.Unlock()
}

// advancePending decrements every pending capture's tail countdown and
// returns the ones whose tail completed this window, with their
// forensics built. Caller holds s.mu.
func (s *Store) advancePending() []*pendingForensics {
	if len(s.pending) == 0 {
		return nil
	}
	var ready []*pendingForensics
	kept := s.pending[:0]
	for _, p := range s.pending {
		p.remaining--
		if p.remaining <= 0 {
			p.forensics = s.buildForensicsLocked(p.mark)
			ready = append(ready, p)
			continue
		}
		kept = append(kept, p)
	}
	s.pending = kept
	return ready
}

// flushPending fires every capture still waiting for its tail (shutdown
// path): whatever history exists now is the capture.
func (s *Store) flushPending() {
	s.mu.Lock()
	drained := s.pending
	s.pending = nil
	for _, p := range drained {
		p.forensics = s.buildForensicsLocked(p.mark)
	}
	s.mu.Unlock()
	for _, p := range drained {
		p.fire()
	}
}

// buildForensicsLocked snapshots the windows around mark.Window: up to
// forensicsPreWindows before the breach and everything sampled since.
// Caller holds s.mu.
func (s *Store) buildForensicsLocked(mark BreachMark) *Forensics {
	lo, hi := s.rangeLocked(0)
	if pre := mark.Window; pre > forensicsPreWindows && pre-forensicsPreWindows > lo {
		lo = pre - forensicsPreWindows
	}
	if lo > hi {
		lo = hi
	}
	f := &Forensics{
		Mark:            mark,
		IntervalSeconds: s.interval.Seconds(),
		Start:           lo,
		Times:           s.timesLocked(lo, hi),
		Series:          make(map[string]SeriesData),
	}
	include := func(name string) {
		sr, ok := s.series[name]
		if !ok {
			return
		}
		if _, dup := f.Series[name]; dup {
			return
		}
		f.Series[name] = s.extractLocked(sr, lo, hi)
		f.order = append(f.order, name)
	}
	include(mark.Metric)
	for _, name := range headlineSeries {
		include(name)
	}
	return f
}

// WriteTable renders the capture as a plain-text pre/post table for the
// flight-recorder dump: one row per window, the breach boundary marked,
// counters as rates, gauges as values, histograms as p99.
func (f *Forensics) WriteTable(w io.Writer) {
	if f == nil {
		return
	}
	fmt.Fprintf(w, "  history (%.3gs windows): %s on %s, value %.4g limit %.4g\n",
		f.IntervalSeconds, f.Mark.Rule, f.Mark.Metric, f.Mark.Value, f.Mark.Limit)
	cols := f.order
	const maxCols = 5
	if len(cols) > maxCols {
		cols = cols[:maxCols]
	}
	fmt.Fprintf(w, "  %8s %12s", "window", "time")
	for _, name := range cols {
		fmt.Fprintf(w, " %22s", tableHeader(name, f.Series[name].Kind))
	}
	fmt.Fprintln(w)
	for i := range f.Times {
		g := f.Start + uint64(i)
		marker := " "
		if g == f.Mark.Window {
			marker = ">"
		}
		at := time.UnixMilli(f.Times[i])
		fmt.Fprintf(w, " %s%8d %12s", marker, g, at.Format("15:04:05.000"))
		for _, name := range cols {
			sd := f.Series[name]
			var v float64
			switch sd.Kind {
			case KindHistogram.String():
				if i < len(sd.P99) {
					v = sd.P99[i]
				}
			default:
				if i < len(sd.Values) {
					v = sd.Values[i]
				}
			}
			fmt.Fprintf(w, " %22.6g", v)
		}
		if g == f.Mark.Window {
			fmt.Fprint(w, "  <- breach")
		}
		fmt.Fprintln(w)
	}
}

// tableHeader compresses a series name into a table column label.
func tableHeader(name, kind string) string {
	if kind == KindHistogram.String() {
		name += " p99"
	}
	if len(name) > 22 {
		name = name[len(name)-22:]
	}
	return name
}
