package core

import (
	"fmt"
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

	// Shared read-only tables: the island map and the sensor
	// characteristic, built once for the whole slab.
	islands  []mapping.Island
	hyst     float64
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
		islands:     mapper.Islands(),
		hyst:        mapper.Config().Hysteresis,
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
		s.cur[i] = -1
		s.dist[i] = s.islandCenter(s.nextU64(i))
		s.target[i] = s.islandCenter(s.nextU64(i))
		// Glide speeds span roughly the scripted fleet glides: the full
		// 26 cm range over 350-700 ms at the 40 ms tick.
		s.step[i] = 1.5 + 1.5*u64ToFloat(s.nextU64(i))
		s.dwell[i] = int16(s.nextU64(i) % uint64(cfg.DwellTicks))
	}
	return s, nil
}

// Len returns the slab size.
func (s *StateSlab) Len() int { return s.n }

// nextU64 advances device i's packed xoshiro256** state (the sim.Rand walk
// on slab storage).
func (s *StateSlab) nextU64(i int) uint64 {
	st := s.rng[4*i : 4*i+4 : 4*i+4]
	result := ((st[1]*5)<<7 | (st[1]*5)>>57) * 9
	t := st[1] << 17
	st[2] ^= st[0]
	st[3] ^= st[1]
	st[1] ^= st[2]
	st[0] ^= st[3]
	st[2] ^= t
	st[3] = (st[3] << 45) | (st[3] >> 19)
	return result
}

func u64ToFloat(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// islandCenter maps a random draw to a random island's physical centre.
func (s *StateSlab) islandCenter(u uint64) float64 {
	return s.islands[u%uint64(len(s.islands))].DistanceCm
}

// approxNorm returns a cheap approximately normal deviate with unit
// standard deviation (Irwin-Hall of four uniforms). The scale path trades
// the exact Box-Muller tail for a branch- and transcendental-free kernel;
// the filter eats the difference.
func (s *StateSlab) approxNorm(i int) float64 {
	sum := u64ToFloat(s.nextU64(i)) + u64ToFloat(s.nextU64(i)) +
		u64ToFloat(s.nextU64(i)) + u64ToFloat(s.nextU64(i))
	return (sum - 2) * 1.7320508075688772 // sqrt(12/4): unit variance
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
func (s *StateSlab) tick(i int, bins *latencyBins, emit FrameEmitter, atMillis uint32) {
	// Hand motion: dwell at a reached target, then glide to the next.
	d := s.dist[i]
	switch {
	case s.dwell[i] > 0:
		s.dwell[i]--
	default:
		delta := s.target[i] - d
		step := s.step[i]
		if delta <= step && delta >= -step {
			d = s.target[i]
			s.dwell[i] = s.dwellTicks
			s.target[i] = s.islandCenter(s.nextU64(i))
		} else if delta > 0 {
			d += step
		} else {
			d -= step
		}
		s.dist[i] = d
	}

	// Sample the characteristic with sensor noise, then quantise through
	// the 10-bit ADC exactly like the board does.
	v := s.sensor.Sample(d) + s.noiseSD*s.approxNorm(i)
	if v < 0 {
		v = 0
	}
	code := int(v / adc.DefaultVref * float64(adc.MaxCode+1)) // truncating ADC
	if code > adc.MaxCode {
		code = adc.MaxCode
	}
	v = float64(code) * adc.DefaultVref / float64(adc.MaxCode+1)

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
	if s.ackPend[i] > 0 {
		s.outstanding[i] -= s.ackPend[i]
		s.ackPend[i] = 0
	}

	// Island mapping with hysteresis (mapping.Mapper.Map in array form).
	idx := s.mapVoltage(i, v)
	if idx >= 0 && idx != int(s.cur[i]) {
		s.cur[i] = int16(idx)
		s.switches[i]++
		s.emitFrame(i, bins, emit, atMillis)
	} else if idx >= 0 {
		s.cur[i] = int16(idx)
	}
}

// mapVoltage returns the islands index (ascending-voltage order) selected
// by v, honouring the hysteresis of the device's current island, or -1.
func (s *StateSlab) mapVoltage(i int, v float64) int {
	if c := s.cur[i]; c >= 0 {
		is := &s.islands[c]
		h := s.hyst * (is.Hi - is.Lo) / 2
		if v >= is.Lo-h && v <= is.Hi+h {
			return int(c)
		}
	}
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

// emitFrame accounts one scroll frame through the modelled reliable link:
// a lost first copy is retransmitted and delivered (the ARQ guarantee),
// and the window bookkeeping records it on the air until next tick's ack.
// With a latency accumulator attached it also bins the frame's modelled
// end-to-end latency.
func (s *StateSlab) emitFrame(i int, bins *latencyBins, emit FrameEmitter, atMillis uint32) {
	s.seq[i]++
	s.sent[i]++
	s.outstanding[i]++
	s.ackPend[i]++
	lost := s.lossProb > 0 && u64ToFloat(s.nextU64(i)) < s.lossProb
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
