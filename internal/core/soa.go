package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/adc"
	"github.com/hcilab/distscroll/internal/firmware"
	"github.com/hcilab/distscroll/internal/gp2d120"
	"github.com/hcilab/distscroll/internal/mapping"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// StateSlab is the struct-of-arrays layout for the million-device scale
// path: the hot per-device state of the firmware loop — RNG walk, filter
// window, island hysteresis, seq counter, ARQ window bookkeeping and link
// accounting — packed into contiguous arrays indexed by fleet slot, so one
// worker advancing a stripe of devices walks memory linearly instead of
// chasing a *Device graph per device.
//
// The slab models the same pipeline the full Device runs — minimum-jerk-ish
// glides over the physical range, GP2D120 sampling with noise, 10-bit ADC
// quantisation, median3+EMA filtering, island mapping with hysteresis, and
// frame emission with loss/retransmit accounting — but trades exact model
// parity for density: a slab device costs ~120 bytes where a full Device
// costs tens of kilobytes. The full path remains the reference for
// behavioural studies; the slab is the load generator that makes scale
// claims measurable (see fleet.RunScale and DESIGN.md §11).
//
// Determinism: every per-device value is derived at construction from
// (seed, slot) alone, and Tick touches only slot-local state plus shared
// read-only tables, so results are a pure function of the seed and the
// device count — independent of how devices are striped across workers.
type StateSlab struct {
	n int

	// rng is the per-device xoshiro256** state, 4 words per device, the
	// same generator as sim.Rand so streams have the same quality.
	rng []uint64

	// Median3 window (3 taps) + fill count, then the EMA value; emaInit
	// doubles as the filter's warm-up flag.
	win     []float64
	winN    []uint8
	ema     []float64
	emaInit []uint8

	// Hand-motion state: a glide-dwell-retarget loop over the island
	// centres, the scripted workload of fleet scripts in array form.
	dist   []float64 // current physical distance, cm
	target []float64 // glide target, cm
	step   []float64 // per-tick glide speed, cm (sign-less)
	dwell  []int16   // ticks left to dwell at the current target

	// cur is the hysteresis state: index into islands (sorted ascending by
	// voltage), -1 when between islands.
	cur []int16

	// Per-device wire accounting: seq is the next frame sequence number;
	// outstanding/ackPend are the ARQ window bookkeeping (frames on the
	// air last tick are acked this tick); the counters mirror LinkStats.
	seq         []uint16
	outstanding []uint16
	ackPend     []uint16
	sent        []uint32
	delivered   []uint32
	lost        []uint32
	retransmits []uint32
	switches    []uint32 // island switches = scroll events emitted

	// Shared read-only tables: the island map, each island's hysteresis
	// band, the sensor characteristic and the ADC tables, built once for
	// the whole slab (the ADC tables once per process).
	islands  []mapping.Island
	bands    []band
	adc      *adcTables
	sensor   *gp2d120.Sensor
	noiseSD  float64
	lossProb float64

	dwellTicks int16
}

// SlabConfig parameterises a StateSlab.
type SlabConfig struct {
	// Devices is the slab size.
	Devices int
	// Seed derives every per-device stream; same seed, same results.
	Seed uint64
	// Entries is the number of menu entries to map the range onto
	// (default 12, the flat fleet menu).
	Entries int
	// LossProb is the per-frame loss probability of the modelled link
	// (default: the rf default link's loss).
	LossProb float64
	// DwellTicks is how many ticks a device holds a reached target before
	// gliding to the next one (default 8, ~300 ms at the 40 ms tick).
	DwellTicks int
}

// NewStateSlab builds the packed per-device state for n devices in one
// batched pass — no per-device allocation beyond the shared arrays.
func NewStateSlab(cfg SlabConfig) (*StateSlab, error) {
	n := cfg.Devices
	if n < 1 {
		return nil, fmt.Errorf("core: slab needs at least 1 device, got %d", n)
	}
	if cfg.LossProb < 0 || cfg.LossProb > 1 {
		return nil, fmt.Errorf("core: probabilities must be in [0,1], got loss %v", cfg.LossProb)
	}
	entries := cfg.Entries
	if entries <= 0 {
		entries = 12
	}
	if cfg.DwellTicks <= 0 {
		cfg.DwellTicks = 8
	}
	sensorCfg := gp2d120.DefaultConfig()
	sensor, err := gp2d120.New(sensorCfg, gp2d120.DefaultSurface(), nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	mapper, err := mapping.New(mapping.DefaultConfig(entries), sensor.Ideal)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	islands := mapper.Islands()
	hyst := mapper.Config().Hysteresis
	bands := make([]band, len(islands))
	for c, is := range islands {
		h := hyst * (is.Hi - is.Lo) / 2
		bands[c] = band{lo: is.Lo - h, hi: is.Hi + h}
	}

	s := &StateSlab{
		n:           n,
		rng:         make([]uint64, 4*n),
		win:         make([]float64, 3*n),
		winN:        make([]uint8, n),
		ema:         make([]float64, n),
		emaInit:     make([]uint8, n),
		dist:        make([]float64, n),
		target:      make([]float64, n),
		step:        make([]float64, n),
		dwell:       make([]int16, n),
		cur:         make([]int16, n),
		seq:         make([]uint16, n),
		outstanding: make([]uint16, n),
		ackPend:     make([]uint16, n),
		sent:        make([]uint32, n),
		delivered:   make([]uint32, n),
		lost:        make([]uint32, n),
		retransmits: make([]uint32, n),
		switches:    make([]uint32, n),
		islands:     islands,
		bands:       bands,
		adc:         slabADC(),
		sensor:      sensor,
		noiseSD:     sensorCfg.NoiseSD,
		lossProb:    cfg.LossProb,
		dwellTicks:  int16(cfg.DwellTicks),
	}

	for i := 0; i < n; i++ {
		// Seed the device stream from (seed, slot) with splitmix64 — the
		// same spreader sim.NewRand uses — so a device's behaviour depends
		// only on its slot, never on construction or striping order.
		x := cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
		for w := 0; w < 4; w++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			s.rng[4*i+w] = z ^ (z >> 31)
		}
		r := s.loadRNG(i)
		var u uint64
		s.cur[i] = -1
		r, u = r.next()
		s.dist[i] = s.islandCenter(u)
		r, u = r.next()
		s.target[i] = s.islandCenter(u)
		// Glide speeds span roughly the scripted fleet glides: the full
		// 26 cm range over 350-700 ms at the 40 ms tick.
		r, u = r.next()
		s.step[i] = 1.5 + 1.5*u64ToFloat(u)
		r, u = r.next()
		s.dwell[i] = int16(u % uint64(cfg.DwellTicks))
		s.storeRNG(i, r)
	}
	return s, nil
}

// Len returns the slab size.
func (s *StateSlab) Len() int { return s.n }

// xoshiro is one device's xoshiro256** state (the sim.Rand generator)
// held as a value, so the tick loads the device's four words once, steps
// them in registers and stores them once.
type xoshiro struct{ s0, s1, s2, s3 uint64 }

// next returns the advanced state and its draw.
func (x xoshiro) next() (xoshiro, uint64) {
	result := ((x.s1*5)<<7 | (x.s1*5)>>57) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = (x.s3 << 45) | (x.s3 >> 19)
	return x, result
}

func (s *StateSlab) loadRNG(i int) xoshiro {
	st := s.rng[4*i : 4*i+4 : 4*i+4]
	return xoshiro{st[0], st[1], st[2], st[3]}
}

func (s *StateSlab) storeRNG(i int, x xoshiro) {
	st := s.rng[4*i : 4*i+4 : 4*i+4]
	st[0], st[1], st[2], st[3] = x.s0, x.s1, x.s2, x.s3
}

func u64ToFloat(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// islandCenter maps a random draw to a random island's physical centre.
func (s *StateSlab) islandCenter(u uint64) float64 {
	return s.islands[u%uint64(len(s.islands))].DistanceCm
}

// band is an island's hysteresis band: the island widened by
// hysteresis*(Hi-Lo)/2 on each side, over which a device already on the
// island stays on it (mapping.Mapper.Map's rule, precomputed).
type band struct{ lo, hi float64 }

func (b band) holds(v float64) bool { return v >= b.lo && v <= b.hi }

// island returns the index of the island containing v, or -1 when v lies
// between islands: a binary search over the islands, which are sorted
// ascending by voltage and disjoint.
func (s *StateSlab) island(v float64) int {
	lo, hi := 0, len(s.islands)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		is := &s.islands[mid]
		switch {
		case v < is.Lo:
			hi = mid - 1
		case v > is.Hi:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// adcTables quantise a voltage through the board's truncating 10-bit ADC
// and back without a division. The ADC's code is
// min(int(v/Vref*1024), MaxCode); thr[k] is the least float64 with code k,
// found by bisection over float64 bits against that very expression, and
// volts[k] is code k read back as volts. The code estimated by one multiply,
// int(v*(1024/Vref)), is the true code or one above it (both functions are
// monotone in v, and TestADCQuantiseTable checks the estimate at every
// threshold), so one compare against thr settles it: exact for every
// finite v >= 0.
type adcTables struct {
	thr   [adc.MaxCode + 1]float64
	volts [adc.MaxCode + 1]float64
}

// adcCode is the ADC transfer function the tables reproduce, before the
// clamp at MaxCode.
func adcCode(v float64) int { return int(v / adc.DefaultVref * float64(adc.MaxCode+1)) }

// adcEstimate is the division-free code estimate quantise starts from.
func adcEstimate(v float64) int { return int(v * (float64(adc.MaxCode+1) / adc.DefaultVref)) }

// adcThreshold returns the least float64 v >= 0 with adcCode(v) >= k, for
// 1 <= k <= MaxCode+1: non-negative floats order like their bit patterns.
func adcThreshold(k int) float64 {
	lo, hi := uint64(0), math.Float64bits(adc.DefaultVref) // adcCode(lo) < k <= adcCode(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if adcCode(math.Float64frombits(mid)) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// slabADC builds the ADC tables once per process.
var slabADC = sync.OnceValue(func() *adcTables {
	q := new(adcTables)
	for k := range q.thr {
		if k > 0 {
			q.thr[k] = adcThreshold(k)
		}
		q.volts[k] = float64(k) * adc.DefaultVref / float64(adc.MaxCode+1)
	}
	return q
})

// quantise returns v as the ADC reads it back, volts[code(v)], for v >= 0.
func (q *adcTables) quantise(v float64) float64 {
	k := adcEstimate(v)
	if uint(k) > adc.MaxCode {
		k = adc.MaxCode
	}
	if v < q.thr[k] {
		k--
	}
	return q.volts[k]
}

// FrameEmitter receives one emitted scale frame: the device slot, the
// frame's wire sequence number, the island index it reports and the sweep's
// virtual timestamp in milliseconds. Emission consumes no device RNG and
// mutates no slab state, so a run with an emitter attached ticks through
// random walks bit-identical to a plain run — the networked scale path uses
// it to marshal real v1 frames onto a TCP connection.
type FrameEmitter func(slot int, seq uint16, island int16, atMillis uint32)

// Tick advances one device through one firmware cycle: motion, sample,
// quantise, filter, map, emit. It allocates nothing.
func (s *StateSlab) Tick(i int) { s.tick(i, nil, nil, 0) }

// tick is Tick with an optional latency accumulator and frame emitter:
// every emitted frame bins its modelled end-to-end latency and/or is handed
// to emit. Nil hooks cost one predictable branch per frame, keeping the
// uninstrumented path identical.
//
// The kernel is straight-line: the device's RNG words are loaded once and
// stepped in registers (draw order: retarget, four noise draws, loss), the
// ADC is a multiply, one threshold compare and a table read, and the
// hysteresis test is one precomputed band, with the island search only on
// a miss. It is bit-identical to the stage-by-stage reference in
// soa_ref_test.go.
func (s *StateSlab) tick(i int, bins *latencyBins, emit FrameEmitter, atMillis uint32) {
	r := s.loadRNG(i)
	var u uint64

	// Hand motion: dwell at a reached target, then glide to the next.
	d := s.dist[i]
	if s.dwell[i] > 0 {
		s.dwell[i]--
	} else {
		target, step := s.target[i], s.step[i]
		delta := target - d
		if delta <= step && delta >= -step {
			d = target
			s.dwell[i] = s.dwellTicks
			r, u = r.next()
			s.target[i] = s.islandCenter(u)
		} else if delta > 0 {
			d += step
		} else {
			d -= step
		}
		s.dist[i] = d
	}

	// Sample the characteristic with sensor noise (an Irwin-Hall deviate
	// of four uniforms: unit variance, no transcendental call), then
	// quantise through the 10-bit ADC exactly like the board does. The
	// float64 conversion keeps the noise product rounded on its own, never
	// fused into the add.
	r, u0 := r.next()
	r, u1 := r.next()
	r, u2 := r.next()
	r, u3 := r.next()
	sum := u64ToFloat(u0) + u64ToFloat(u1) + u64ToFloat(u2) + u64ToFloat(u3)
	noise := (sum - 2) * 1.7320508075688772 // sqrt(12/4)
	v := s.sensor.Sample(d) + float64(s.noiseSD*noise)
	if v < 0 {
		v = 0
	}
	v = s.adc.quantise(v)

	// Median3 window, then EMA — the firmware's MedianEMA default.
	w := s.win[3*i : 3*i+3 : 3*i+3]
	if s.winN[i] < 3 {
		w[s.winN[i]] = v
		s.winN[i]++
		// Warm-up: pass the raw sample through until the window fills.
	} else {
		w[0], w[1], w[2] = w[1], w[2], v
		v = median3(w[0], w[1], w[2])
	}
	if s.emaInit[i] == 0 {
		s.ema[i] = v
		s.emaInit[i] = 1
	} else {
		s.ema[i] += firmware.DefaultEMAAlpha * (v - s.ema[i])
	}
	v = s.ema[i]

	// Acks for last tick's frames arrive before this tick's mapping, so
	// the window drains one tick behind the sends.
	s.outstanding[i] -= s.ackPend[i]
	s.ackPend[i] = 0

	// Island mapping with hysteresis: a device inside its current island's
	// band stays on it; otherwise search. Unlike mapping.Mapper, a device
	// between islands (-1) keeps its current island, so coming back to it
	// emits nothing.
	cur := int(s.cur[i])
	idx := cur
	if cur < 0 || !s.bands[cur].holds(v) {
		idx = s.island(v)
	}
	if idx >= 0 && idx != cur {
		s.cur[i] = int16(idx)
		s.switches[i]++
		lost := false
		if s.lossProb > 0 {
			r, u = r.next()
			lost = u64ToFloat(u) < s.lossProb
		}
		s.emitFrame(i, lost, bins, emit, atMillis)
	}
	s.storeRNG(i, r)
}

// emitFrame accounts one scroll frame through the modelled reliable link:
// a lost first copy is retransmitted and delivered (the ARQ guarantee),
// and the window bookkeeping records it on the air until next tick's ack.
// With a latency accumulator attached it also bins the frame's modelled
// end-to-end latency.
func (s *StateSlab) emitFrame(i int, lost bool, bins *latencyBins, emit FrameEmitter, atMillis uint32) {
	s.seq[i]++
	s.sent[i]++
	s.outstanding[i]++
	s.ackPend[i]++
	if lost {
		s.lost[i]++
		s.retransmits[i]++
	}
	s.delivered[i]++
	if bins != nil {
		bins[s.latencyBin(i, lost)]++
	}
	if emit != nil {
		// One call per frame regardless of modelled loss: the slab models a
		// reliable link, so every frame is (eventually) delivered exactly
		// once — the emitter carries the post-ARQ stream.
		emit(i, s.seq[i], s.cur[i], atMillis)
	}
}

// latencyBins accumulates a sweep's modelled latency observations. The
// model produces only 16 distinct values (8 hash bins × delivered-first-
// try / retransmitted), so the per-frame instrumentation cost is a single
// array increment; TickStripeObserved flushes the bins into the real
// histogram once per stripe sweep.
type latencyBins [16]uint64

// flush drains the bins into lat and zeroes them.
func (b *latencyBins) flush(lat *telemetry.LocalHistogram) {
	for k, n := range b {
		if n != 0 {
			lat.ObserveN(binLatencyMs(k), n)
			b[k] = 0
		}
	}
}

// binLatencyMs is bin k's modelled end-to-end latency in ms.
func binLatencyMs(k int) float64 {
	ms := 8.0 + float64(k&7)*0.5
	if k >= 8 {
		ms += 50
	}
	return ms
}

// latencyBin derives a frame's modelled latency bin from a hash of
// (slot, seq) rather than from the device RNG stream, so instrumented and
// plain runs tick through identical random walks. The base (bins 0-7,
// 8-11.5 ms in 0.5 ms steps) models the firmware path — one 40 ms cycle's
// worth of sampling plus RF and hub time; a lost first copy (bins 8-15)
// adds a 50 ms retransmit round trip. Every value is an exact multiple of
// 0.5 ms, so float64 partial sums are exact and histogram merges are
// independent of stripe grouping.
func (s *StateSlab) latencyBin(i int, lost bool) int {
	z := (uint64(i)<<16 | uint64(s.seq[i])) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	k := int(z & 7)
	if lost {
		k |= 8
	}
	return k
}

// TickStripe advances the contiguous device range [lo, hi) through one
// firmware cycle. It is the batched per-event unit of work: one
// scheduler event per stripe, not one per device.
func (s *StateSlab) TickStripe(lo, hi int, _ time.Duration) {
	for i := lo; i < hi; i++ {
		s.tick(i, nil, nil, 0)
	}
}

// TickStripeEmit is TickStripe with a frame emitter: every frame the stripe
// emits is handed to emit stamped with the sweep's virtual time. The caller
// (one RunScale worker per stripe) owns emit exclusively during the tick.
func (s *StateSlab) TickStripeEmit(lo, hi int, at time.Duration, emit FrameEmitter) {
	atMillis := uint32(at / time.Millisecond)
	for i := lo; i < hi; i++ {
		s.tick(i, nil, emit, atMillis)
	}
}

// TickStripeObserved is TickStripe with a caller-synchronised latency
// histogram: each emitted frame in the stripe bins its modelled end-to-end
// latency into a stack accumulator, flushed into lat once per sweep. The
// caller (one RunScale worker per stripe) owns lat exclusively during the
// tick, so no synchronisation happens on this path and it still allocates
// nothing.
func (s *StateSlab) TickStripeObserved(lo, hi int, _ time.Duration, lat *telemetry.LocalHistogram) {
	var bins latencyBins
	for i := lo; i < hi; i++ {
		s.tick(i, &bins, nil, 0)
	}
	bins.flush(lat)
}

// TickStripeObservedEmit combines TickStripeObserved and TickStripeEmit:
// latency binning and frame emission in one sweep.
func (s *StateSlab) TickStripeObservedEmit(lo, hi int, at time.Duration, lat *telemetry.LocalHistogram, emit FrameEmitter) {
	atMillis := uint32(at / time.Millisecond)
	var bins latencyBins
	for i := lo; i < hi; i++ {
		s.tick(i, &bins, emit, atMillis)
	}
	bins.flush(lat)
}

// SlabTotals aggregates slab counters (see fleet.RunScale).
type SlabTotals struct {
	Sent        uint64
	Delivered   uint64
	Lost        uint64
	Retransmits uint64
	Switches    uint64
	Outstanding uint64
	MaxWindow   uint16
}

// Totals sums the per-device accounting over [lo, hi); pass 0, Len() for
// the whole slab.
func (s *StateSlab) Totals(lo, hi int) SlabTotals {
	var t SlabTotals
	for i := lo; i < hi; i++ {
		t.Sent += uint64(s.sent[i])
		t.Delivered += uint64(s.delivered[i])
		t.Lost += uint64(s.lost[i])
		t.Retransmits += uint64(s.retransmits[i])
		t.Switches += uint64(s.switches[i])
		t.Outstanding += uint64(s.outstanding[i])
		if s.outstanding[i] > t.MaxWindow {
			t.MaxWindow = s.outstanding[i]
		}
	}
	return t
}

// Contribute folds the totals into a telemetry snapshot under the same
// canonical names the session-based pipeline uses, so a scale run and a
// session run are comparable in one scrape. The slab models firmware,
// link and hub as one fused loop, so several layers share source counters:
// every island switch is one scroll event, one firmware frame, and (plus
// retransmits) one copy on the air; the ARQ guarantee delivers each frame
// exactly once to the hub.
func (t SlabTotals) Contribute(s *telemetry.Snapshot) {
	s.AddCounter(telemetry.MetricFwScrollEvents, t.Switches)
	s.AddCounter(telemetry.MetricFwFramesSent, t.Sent)
	s.AddCounter(telemetry.MetricFwIslandSwitches, t.Switches)
	s.AddCounter(telemetry.MetricRFSent, t.Sent+t.Retransmits)
	s.AddCounter(telemetry.MetricRFLost, t.Lost)
	s.AddCounter(telemetry.MetricRFDelivered, t.Delivered)
	s.AddCounter(telemetry.MetricARQEnqueued, t.Sent)
	s.AddCounter(telemetry.MetricARQAcked, t.Delivered)
	s.AddCounter(telemetry.MetricARQRetransmits, t.Retransmits)
	s.AddCounter(telemetry.MetricHubDecoded, t.Delivered)
	s.AddCounter(telemetry.MetricHubEvents, t.Delivered)
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
