package history

import (
	"encoding/json"
	"errors"
	"io"
	"strings"
)

var errNoRegistry = errors.New("history: Config.Registry is required")

// Query selects a slice of the retained history. The zero Query returns
// everything retained.
type Query struct {
	// LastK limits the response to the most recent K windows
	// (<= 0 returns every retained window).
	LastK int
	// Series, when non-empty, selects exact series names.
	Series []string
	// Prefixes, when non-empty, selects every series whose name starts
	// with one of the prefixes (e.g. "hub_", "net_frames_total{").
	// Series and Prefixes are OR'd together.
	Prefixes []string
}

// SeriesData is one series' retained windows, oldest first. Counters
// carry windowed rates in Values, gauges raw samples in Values,
// histograms the per-window digest columns.
type SeriesData struct {
	Kind   string    `json:"kind"`
	Values []float64 `json:"values,omitempty"`
	Count  []float64 `json:"count,omitempty"`
	P50    []float64 `json:"p50,omitempty"`
	P99    []float64 `json:"p99,omitempty"`
	Max    []float64 `json:"max,omitempty"`
}

// Result is a history query response: parallel window timestamps and the
// selected series, oldest window first.
type Result struct {
	// IntervalSeconds is the configured sampling cadence.
	IntervalSeconds float64 `json:"intervalSeconds"`
	// Capacity is the ring size (max retained windows per series).
	Capacity int `json:"capacity"`
	// Count is how many windows have ever been captured.
	Count uint64 `json:"count"`
	// Start is the global index of the first returned window; the
	// returned windows are [Start, Start+len(Times)).
	Start uint64 `json:"start"`
	// Times stamps each returned window (unix milliseconds).
	Times []int64 `json:"times"`
	// Series maps name to retained data over the same windows.
	Series map[string]SeriesData `json:"series"`
	// Breaches are the latched SLO breach markers; Window is a global
	// window index comparable to Start.
	Breaches []BreachMark `json:"breaches,omitempty"`
}

func (q Query) matches(name string) bool {
	if len(q.Series) == 0 && len(q.Prefixes) == 0 {
		return true
	}
	for _, s := range q.Series {
		if name == s {
			return true
		}
	}
	for _, p := range q.Prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Query snapshots the selected slice of history. Safe against concurrent
// sampling; returns an empty Result (never nil) when nothing matches.
func (s *Store) Query(q Query) *Result {
	if s == nil {
		return &Result{Series: map[string]SeriesData{}}
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	lo, hi := s.rangeLocked(q.LastK)
	res := &Result{
		IntervalSeconds: s.interval.Seconds(),
		Capacity:        s.windows,
		Count:           s.count,
		Start:           lo,
		Times:           s.timesLocked(lo, hi),
		Series:          make(map[string]SeriesData, len(s.series)),
	}
	for name, sr := range s.series {
		if !q.matches(name) {
			continue
		}
		res.Series[name] = s.extractLocked(sr, lo, hi)
	}
	res.Breaches = append(res.Breaches, s.marks...)
	return res
}

// WriteJSON writes a Query response as indented JSON.
func (s *Store) WriteJSON(w io.Writer, q Query) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Query(q))
}

// rangeLocked resolves a lastK request into global window indices
// [lo, hi), clamped to what the ring still retains.
func (s *Store) rangeLocked(lastK int) (lo, hi uint64) {
	hi = s.count
	lo = 0
	if hi > uint64(s.windows) {
		lo = hi - uint64(s.windows)
	}
	if lastK > 0 && hi-lo > uint64(lastK) {
		lo = hi - uint64(lastK)
	}
	return lo, hi
}

func (s *Store) timesLocked(lo, hi uint64) []int64 {
	out := make([]int64, 0, hi-lo)
	for g := lo; g < hi; g++ {
		out = append(out, s.times[g%uint64(s.windows)])
	}
	return out
}

// extractLocked copies one series' windows [lo, hi) out of its ring.
func (s *Store) extractLocked(sr *series, lo, hi uint64) SeriesData {
	d := SeriesData{Kind: sr.kind.String()}
	n := int(hi - lo)
	switch sr.kind {
	case KindCounter, KindGauge:
		d.Values = make([]float64, 0, n)
		for g := lo; g < hi; g++ {
			d.Values = append(d.Values, sr.vals[g%uint64(s.windows)])
		}
	case KindHistogram:
		d.Count = make([]float64, 0, n)
		d.P50 = make([]float64, 0, n)
		d.P99 = make([]float64, 0, n)
		d.Max = make([]float64, 0, n)
		for g := lo; g < hi; g++ {
			dg := sr.digs[g%uint64(s.windows)]
			d.Count = append(d.Count, dg.Count)
			d.P50 = append(d.P50, dg.P50)
			d.P99 = append(d.P99, dg.P99)
			d.Max = append(d.Max, dg.Max)
		}
	}
	return d
}
