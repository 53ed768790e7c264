// Package history is a bounded in-process time-series store over the
// telemetry registry: it samples a Registry snapshot on a fixed cadence
// and retains the last N windows per series in preallocated ring
// buffers. Counters are stored as windowed rates (per second), gauges as
// raw samples, histograms as per-window delta digests (count/p50/p99/max
// computed from the bucket deltas between consecutive snapshots). It is
// the process's one delta engine: the SLO watchdog evaluates its rules
// over these windows through the OnWindow listener instead of diffing
// snapshots of its own.
//
// The package is dependency-free and built for the hot ops plane:
// appending a window is O(series) with zero steady-state allocations —
// every ring, scratch histogram, and bucket slice is allocated when a
// series is first seen and reused forever after. The clock is injectable
// so tests and the deterministic scale path stay seed-stable.
package history

import (
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/telemetry"
)

// Kind classifies a retained series.
type Kind uint8

const (
	// KindCounter series retain the windowed rate (delta per second).
	KindCounter Kind = iota
	// KindGauge series retain the raw sampled value.
	KindGauge
	// KindHistogram series retain a per-window delta Digest.
	KindHistogram
)

// String names the kind for JSON and the dashboard.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Digest is one window's histogram summary: the number of observations
// that landed in the window and the quantiles of the window's delta
// distribution. Max is the q=1 quantile (clamped to the top bucket
// bound, like every bucketed quantile).
type Digest struct {
	Count float64
	P50   float64
	P99   float64
	Max   float64
}

// Defaults for Config zero values.
const (
	DefaultWindows  = 120
	DefaultInterval = time.Second
)

// Config parameterises a Store.
type Config struct {
	// Registry is the telemetry registry to sample. Required.
	Registry *telemetry.Registry
	// Windows is how many sample windows each series retains
	// (<= 0 takes DefaultWindows).
	Windows int
	// Interval is the sampling cadence (<= 0 takes DefaultInterval).
	Interval time.Duration
	// Now injects the clock; nil takes time.Now. Every window is
	// stamped with Now() and rates divide by the measured gap between
	// consecutive samples, so a test clock makes the store fully
	// deterministic.
	Now func() time.Time
}

// series is one retained metric: a ring of scalar values (counter rates
// or gauge samples) or a ring of histogram digests, plus the previous
// cumulative snapshot needed to form the next window's delta.
type series struct {
	kind Kind

	// vals is the scalar ring (KindCounter, KindGauge).
	vals []float64
	// digs is the digest ring (KindHistogram).
	digs []Digest

	// prevCount is the last cumulative counter value (KindCounter).
	prevCount uint64
	// lastVal repeats a gauge's last seen value when the gauge
	// disappears from a snapshot (KindGauge).
	lastVal float64
	// prevHist is the last cumulative histogram snapshot and delta is
	// the reusable scratch for the window's bucket deltas
	// (KindHistogram). Both reuse their slices across windows.
	prevHist telemetry.HistogramSnapshot
	delta    telemetry.HistogramSnapshot
}

// Store retains bounded telemetry history. All methods are safe for
// concurrent use; the zero Store is not usable — build one with New or
// Start.
type Store struct {
	reg      *telemetry.Registry
	windows  int
	interval time.Duration
	now      func() time.Time

	mu     sync.Mutex
	series map[string]*series
	// times is the shared window-timestamp ring (unix milliseconds).
	times []int64
	// count is the total number of windows ever captured; the ring
	// index of window g is g % windows, valid while g >= count-windows.
	count  uint64
	lastAt time.Time

	// marks are latched breach markers (bounded at maxMarks).
	marks []BreachMark
	// pending are breach forensics waiting for their post-breach tail.
	pending []*pendingForensics

	// listenMu serialises calls of listener and guards the slot and
	// listenFrom (the store-clock time the listener was set), so
	// OnWindow(nil) returns only once no call is in flight.
	listenMu   sync.Mutex
	listener   func(window uint64, at time.Time, gap time.Duration)
	listenFrom time.Time

	// rep drives Observe on a ticker (Start only).
	rep *telemetry.Reporter
}

// New builds a passive store: nothing samples it until the caller drives
// Sample/Observe (tests, deterministic runs) or it was built via Start.
func New(cfg Config) (*Store, error) {
	if cfg.Registry == nil {
		return nil, errNoRegistry
	}
	if cfg.Windows <= 0 {
		cfg.Windows = DefaultWindows
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Store{
		reg:      cfg.Registry,
		windows:  cfg.Windows,
		interval: cfg.Interval,
		now:      cfg.Now,
		series:   make(map[string]*series),
		times:    make([]int64, cfg.Windows),
	}, nil
}

// Start builds a store and samples it every Interval on a
// telemetry.Reporter until Stop.
func Start(cfg Config) (*Store, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.rep = telemetry.StartReporter(s.reg, s.interval, s.Observe)
	return s, nil
}

// Stop halts the sampler (if one is running) after it records one last
// window, waits for it to exit, and flushes any breach forensics still
// waiting for their post-breach tail so no onReady callback is lost on
// shutdown. Safe to call more than once and on a nil store.
func (s *Store) Stop() {
	if s == nil {
		return
	}
	s.rep.Stop()
	s.flushPending()
}

// OnWindow sets the store's one window listener (nil clears it). fn runs
// after every appended window, outside the store lock so it may call
// MarkBreach, Latest and Interval, one window at a time. window is the
// window's global index (comparable to Result.Start), at its timestamp
// and gap the measured time since the previous window — or 0 when no
// whole window lies behind it: the store's first window, a frozen clock
// (where the window's rates fall back to the nominal Interval), and a
// window that began before fn was set, whose rates also cover time fn
// never watched. fn must not call OnWindow. Once OnWindow returns, the
// previous listener is not running and is not called again.
func (s *Store) OnWindow(fn func(window uint64, at time.Time, gap time.Duration)) {
	if s == nil {
		return
	}
	s.listenMu.Lock()
	s.listener = fn
	if fn != nil {
		s.listenFrom = s.now()
	}
	s.listenMu.Unlock()
}

// Windows reports the ring capacity.
func (s *Store) Windows() int {
	if s == nil {
		return 0
	}
	return s.windows
}

// Interval reports the configured sampling cadence.
func (s *Store) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// Captured reports how many windows have ever been sampled.
func (s *Store) Captured() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Sample captures one window from the registry now. The snapshot itself
// allocates (it is the registry's export path); the Observe append does
// not.
func (s *Store) Sample() {
	if s == nil {
		return
	}
	s.Observe(s.reg.Snapshot())
}

// Observe appends one window from an already-taken registry snapshot.
// Steady state performs zero allocations: every series ring and scratch
// buffer already exists, and only a brand-new metric name allocates (its
// one-time series creation). Counter windows record delta/dt against the
// previous sample (a counter that went backwards — registry swap —
// rebaselines at rate 0); gauges record the raw sample, repeating the
// last value if the gauge vanished; histograms record the delta digest
// between consecutive cumulative snapshots.
//
// At the store's first window every series takes its baseline from the
// sample, so it records rate 0 / an empty digest rather than a spike from
// the whole pre-history. A series first seen in a later window starts
// from zero: everything it holds arrived since the previous sample, so
// its first window records v/dt and the whole histogram.
func (s *Store) Observe(snap *telemetry.Snapshot) {
	if s == nil || snap == nil {
		return
	}
	now := s.now()

	s.mu.Lock()
	var gap time.Duration
	if s.count > 0 {
		gap = now.Sub(s.lastAt)
	}
	dt := s.interval.Seconds()
	if gap > 0 {
		dt = gap.Seconds()
	}
	s.lastAt = now
	idx := int(s.count % uint64(s.windows))
	s.times[idx] = now.UnixMilli()

	// Discover series that appeared this window: baseline from the
	// sample at the first window, from zero after it.
	first := s.count == 0
	for name, v := range snap.Counters {
		if _, ok := s.series[name]; !ok {
			sr := &series{kind: KindCounter, vals: make([]float64, s.windows)}
			if first {
				sr.prevCount = v
			}
			s.series[name] = sr
		}
	}
	for name := range snap.Gauges {
		if _, ok := s.series[name]; !ok {
			s.series[name] = &series{kind: KindGauge, vals: make([]float64, s.windows)}
		}
	}
	for name, h := range snap.Histograms {
		if _, ok := s.series[name]; !ok {
			sr := &series{kind: KindHistogram, digs: make([]Digest, s.windows)}
			sr.rebaseline(h)
			if !first {
				clear(sr.prevHist.Counts)
				sr.prevHist.Count, sr.prevHist.Sum = 0, 0
			}
			s.series[name] = sr
		}
	}

	// Every retained series gets a value this window, even if it
	// vanished from the snapshot.
	for name, sr := range s.series {
		switch sr.kind {
		case KindCounter:
			rate := 0.0
			if cur, ok := snap.Counters[name]; ok {
				if cur >= sr.prevCount {
					rate = float64(cur-sr.prevCount) / dt
				}
				sr.prevCount = cur
			}
			sr.vals[idx] = rate
		case KindGauge:
			if v, ok := snap.Gauges[name]; ok {
				sr.lastVal = v
			}
			sr.vals[idx] = sr.lastVal
		case KindHistogram:
			var d Digest
			if h, ok := snap.Histograms[name]; ok {
				d = sr.windowDigest(h)
			}
			sr.digs[idx] = d
		}
	}

	window := s.count
	s.count++
	ready := s.advancePending()
	s.mu.Unlock()

	s.listenMu.Lock()
	if s.listener != nil {
		if now.Add(-gap).Before(s.listenFrom) {
			gap = 0
		}
		s.listener(window, now, gap)
	}
	s.listenMu.Unlock()
	for _, p := range ready {
		p.fire()
	}
}

// Point is one series' latest window; see Latest.
type Point struct {
	// Rate is a counter's windowed rate (per second).
	Rate float64
	// Value is a counter's cumulative count or a gauge's sample.
	Value float64
	// Digest is a histogram's window digest.
	Digest Digest
}

// Latest reports the named series' most recent window; false when the
// series is not retained or no window was captured yet.
func (s *Store) Latest(name string) (Point, bool) {
	if s == nil {
		return Point{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[name]
	if !ok || s.count == 0 {
		return Point{}, false
	}
	idx := (s.count - 1) % uint64(s.windows)
	var p Point
	switch sr.kind {
	case KindCounter:
		p.Rate, p.Value = sr.vals[idx], float64(sr.prevCount)
	case KindGauge:
		p.Value = sr.vals[idx]
	case KindHistogram:
		p.Digest = sr.digs[idx]
	}
	return p, true
}

// windowDigest forms the digest of the observations between the previous
// cumulative snapshot and cur, then rebaselines. Shape changes and
// counter regressions (registry swaps) record an empty window. Reuses
// the series' scratch slices: zero allocations once warmed.
func (sr *series) windowDigest(cur telemetry.HistogramSnapshot) Digest {
	prev := &sr.prevHist
	if len(prev.Counts) != len(cur.Counts) || prev.Count > cur.Count {
		sr.rebaseline(cur)
		return Digest{}
	}
	d := &sr.delta
	d.Bounds = append(d.Bounds[:0], cur.Bounds...)
	d.Counts = d.Counts[:0]
	for i := range cur.Counts {
		if cur.Counts[i] < prev.Counts[i] {
			sr.rebaseline(cur)
			return Digest{}
		}
		d.Counts = append(d.Counts, cur.Counts[i]-prev.Counts[i])
	}
	d.Count = cur.Count - prev.Count
	d.Sum = cur.Sum - prev.Sum
	sr.rebaseline(cur)
	if d.Count == 0 {
		return Digest{}
	}
	return Digest{
		Count: float64(d.Count),
		P50:   d.Quantile(0.5),
		P99:   d.Quantile(0.99),
		Max:   d.Quantile(1),
	}
}

// rebaseline copies cur into the series' previous cumulative snapshot,
// reusing the existing slices.
func (sr *series) rebaseline(cur telemetry.HistogramSnapshot) {
	sr.prevHist.Bounds = append(sr.prevHist.Bounds[:0], cur.Bounds...)
	sr.prevHist.Counts = append(sr.prevHist.Counts[:0], cur.Counts...)
	sr.prevHist.Count = cur.Count
	sr.prevHist.Sum = cur.Sum
}
