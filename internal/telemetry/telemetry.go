// Package telemetry is the dependency-free measurement substrate of the
// DistScroll reproduction. The paper evaluates DistScroll by measuring it
// — sensor characteristic fits, selection times, error rates — and this
// package extends that discipline to the software pipeline itself: every
// layer (ADC sampling, island mapping, RF framing, hub demultiplexing,
// handler dispatch) can account where time and frames go.
//
// Two instrument families cover two cost regimes:
//
//   - Atomic Counter, Gauge and Histogram are safe for unsynchronised
//     concurrent writers (many fleet devices incrementing one name).
//   - LocalHistogram keeps plain fields for hot paths that already hold a
//     lock or own their data: a bare hub demux costs ~30 ns/frame and the
//     instrumented one ~45 ns (BenchmarkHubDemux, BenchmarkHubDemuxInstrumented
//     on a 2-vCPU Xeon), so the per-frame latency observation must cost
//     single nanoseconds, which plain increments under the session mutex
//     deliver and atomics do not.
//
// Reading the wall clock costs more than that: two reads around every
// dispatched frame were ~115 ns, more than the tap they timed. So
// per-frame paths read no clock. Sessions time handler dispatch for one
// frame in 64 (MetricHubDispatch), and a served gateway's shard workers
// read the clock once per batch (MetricNetRingWait).
//
// Un-instrumented use costs ~0: every method is a no-op on a nil receiver
// and a nil *Registry hands out nil instruments, so call sites need no
// conditionals.
//
// State that is already counted elsewhere (session stats under their
// mutex, link counters) is not double-counted on the hot path; instead the
// owning component registers a Collector that folds those counters into
// each Snapshot on demand.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are no-ops on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram safe for concurrent writers.
// Bounds are inclusive upper bucket bounds in ascending order; one
// implicit overflow bucket catches everything above the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Uint64   // float64 bits, updated by CAS
}

// newHistogram builds an atomic histogram over the given ascending bounds.
func newHistogram(bounds []float64) *Histogram {
	bounds = checkBounds(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. NaN observations are dropped and ±Inf counts
// in its extreme bucket without touching the sum: one poisoned observation
// must not make every later JSON export unserialisable.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.counts[bucketFor(h.bounds, v)].Add(1)
	if math.IsInf(v, 0) {
		return
	}
	for {
		old := h.sum.Load()
		next := floatBits(floatFromBits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    floatFromBits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// LocalHistogram is a fixed-bucket histogram with plain (non-atomic)
// fields. The owner provides synchronisation — typically a mutex it
// already holds on the instrumented path — making Observe cost a bounds
// scan and two plain adds, cheap enough for a ~40 ns hot loop.
type LocalHistogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	sum    float64
}

// NewLocalHistogram builds a histogram over the given ascending inclusive
// upper bounds.
func NewLocalHistogram(bounds []float64) *LocalHistogram {
	bounds = checkBounds(bounds)
	return &LocalHistogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value. Caller synchronises. Non-finite values get
// the same guard as Histogram.Observe: NaN dropped, ±Inf counted without a
// sum contribution.
func (h *LocalHistogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.counts[bucketFor(h.bounds, v)]++
	if math.IsInf(v, 0) {
		return
	}
	h.sum += v
}

// ObserveN records n observations of the same value in one bucket walk —
// the flush path for callers that pre-bin a hot loop's observations (the
// scale path's tick sweep bins its 16 distinct modeled latencies into a
// stack array and flushes once per sweep). Caller synchronises. Same
// non-finite guard as Observe.
func (h *LocalHistogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 || math.IsNaN(v) {
		return
	}
	h.counts[bucketFor(h.bounds, v)] += n
	if math.IsInf(v, 0) {
		return
	}
	h.sum += v * float64(n)
}

// SnapshotInto copies the histogram state into dst, reusing dst's slices
// when their shape matches — the publish path of a periodically snapshotted
// shard stays allocation-free after the first copy. Caller synchronises.
func (h *LocalHistogram) SnapshotInto(dst *HistogramSnapshot) {
	if h == nil {
		*dst = HistogramSnapshot{}
		return
	}
	dst.Bounds = append(dst.Bounds[:0], h.bounds...)
	dst.Counts = append(dst.Counts[:0], h.counts...)
	dst.Sum = h.sum
	dst.Count = 0
	for _, c := range h.counts {
		dst.Count += c
	}
	dst.P50, dst.P90, dst.P99 = 0, 0, 0
}

// Snapshot copies the histogram state. Caller synchronises.
func (h *LocalHistogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := h.view()
	s.Bounds = append([]float64(nil), s.Bounds...)
	s.Counts = append([]uint64(nil), s.Counts...)
	return s
}

// view returns the histogram state as a snapshot that aliases the
// histogram's own slices: a read-only argument for MergeHistogram, which
// copies whatever it keeps. Caller synchronises.
func (h *LocalHistogram) view() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: h.counts, Sum: h.sum}
	for _, c := range h.counts {
		s.Count += c
	}
	return s
}

// bucketFor returns the index of the first bound >= v (inclusive upper
// bounds), or len(bounds) for the overflow bucket. Overflow resolves in
// one comparison; everything else binary-searches, keeping the hot-path
// cost flat no matter which bucket an observation lands in.
func bucketFor(bounds []float64, v float64) int {
	n := len(bounds)
	if v > bounds[n-1] {
		return n
	}
	lo, hi := 0, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// checkBounds validates and defensively copies a bounds slice.
func checkBounds(bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	out := append([]float64(nil), bounds...)
	if !sort.Float64sAreSorted(out) {
		panic(fmt.Sprintf("telemetry: histogram bounds not ascending: %v", bounds))
	}
	return out
}

// Collector contributes externally owned counters to a snapshot. Components
// that already count under their own synchronisation (sessions, links,
// firmware) register one instead of paying for registry instruments on
// their hot paths.
type Collector func(*Snapshot)

// Registry names and owns a process's instruments. A nil *Registry is the
// no-op default: it hands out nil instruments whose methods do nothing,
// so un-instrumented assemblies pay only a nil check per call site.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []Collector
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. An existing histogram keeps its original bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// RegisterCollector adds a pull-based metrics source invoked on every
// Snapshot. Collectors must be safe to call from any goroutine.
func (r *Registry) RegisterCollector(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Snapshot captures every instrument and collector into one consistent-ish
// view (counters are read without a global pause, so a snapshot taken
// mid-run is a moment in flight, not a barrier). Safe on a nil registry,
// which yields an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := NewSnapshot()
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()
	for _, c := range collectors {
		c(s)
	}
	s.finalize()
	return s
}
