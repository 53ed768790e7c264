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
// window, island hysteresis, ARQ window bookkeeping and link accounting —
// packed into contiguous arrays indexed by fleet slot, so one worker
// advancing a stripe of devices walks memory linearly instead of chasing a
// *Device graph per device.
//
// The slab models the same pipeline the full Device runs — minimum-jerk-ish
// glides over the physical range, GP2D120 sampling with noise, 10-bit ADC
// quantisation, median3+EMA filtering, island mapping with hysteresis, and
// frame emission with loss/retransmit accounting — but trades exact model
// parity for density: a slab device costs ~87 bytes where a full Device
// costs tens of kilobytes. The full path remains the reference for
// behavioural studies; the slab is the load generator that makes scale
// claims measurable (see fleet.RunScale and DESIGN.md §11).
//
// Only state that carries information is stored: a frame's sequence number
// is uint16(switches), every frame is sent and delivered once (the ARQ
// guarantee), so sent = delivered = switches and retransmits = lost.
//
// Determinism: every per-device value is derived at construction from
// (seed, slot) alone, and a tick touches only slot-local state plus shared
// read-only tables, so results are a pure function of the seed and the
// device count — independent of how devices are striped across workers.
type StateSlab struct {
	n int

	// rng is the per-device xoshiro256** state, 4 words per device, the
	// same generator as sim.Rand so streams have the same quality.
	rng []uint64

	// Median3 window of ADC codes (3 taps) + fill count, then the EMA
	// value in volts; winN == 0 marks the EMA as not yet seeded.
	win  []uint16
	winN []uint8
	ema  []float64

	// Hand-motion state: a glide-dwell-retarget loop over the island
	// centres, the scripted workload of fleet scripts in array form.
	dist   []float64 // current physical distance, cm
	ideal  []float64 // the sensor's noiseless reading at dist, V
	target []uint16  // glide target: an index into islands
	step   []float64 // per-tick glide speed, cm (sign-less)
	dwell  []int16   // ticks left to dwell at the current target

	// cur is the hysteresis state: index into islands (sorted ascending by
	// voltage), -1 when between islands.
	cur []int16

	// Per-device wire accounting: outstanding is the ARQ window (the frame
	// on the air last tick is acked this tick, so it is 0 or 1); lost
	// counts first copies lost and retransmitted; switches counts island
	// switches = scroll frames emitted.
	outstanding []uint16
	lost        []uint32
	switches    []uint32

	// Shared read-only tables: the island map, each island's hysteresis
	// band, the voltage bucket index over the islands, the sensor reading
	// at each island centre and the ADC tables, built once for the whole
	// slab (the ADC tables once per process).
	islands     []mapping.Island
	bands       []band
	firstIsland islandIndex
	centreV     []float64
	adc         *adcTables
	sensor      *gp2d120.Sensor
	noiseSD     float64
	lossProb    float64

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
	if len(islands) > math.MaxInt16 {
		return nil, fmt.Errorf("core: slab maps at most %d entries, got %d", math.MaxInt16, len(islands))
	}
	hyst := mapper.Config().Hysteresis
	bands := make([]band, len(islands))
	centreV := make([]float64, len(islands))
	for c, is := range islands {
		h := hyst * (is.Hi - is.Lo) / 2
		bands[c] = band{lo: is.Lo - h, hi: is.Hi + h}
		centreV[c] = sensor.Sample(is.DistanceCm)
	}

	s := &StateSlab{
		n:           n,
		rng:         make([]uint64, 4*n),
		win:         make([]uint16, 3*n),
		winN:        make([]uint8, n),
		ema:         make([]float64, n),
		dist:        make([]float64, n),
		ideal:       make([]float64, n),
		target:      make([]uint16, n),
		step:        make([]float64, n),
		dwell:       make([]int16, n),
		cur:         make([]int16, n),
		outstanding: make([]uint16, n),
		lost:        make([]uint32, n),
		switches:    make([]uint32, n),
		islands:     islands,
		bands:       bands,
		firstIsland: newIslandIndex(islands),
		centreV:     centreV,
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
		c := s.randomIsland(u)
		s.dist[i], s.ideal[i] = s.islands[c].DistanceCm, centreV[c]
		r, u = r.next()
		s.target[i] = s.randomIsland(u)
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

// randomIsland maps a random draw to a random island's index.
func (s *StateSlab) randomIsland(u uint64) uint16 {
	return uint16(u % uint64(len(s.islands)))
}

// band is an island's hysteresis band: the island widened by
// hysteresis*(Hi-Lo)/2 on each side, over which a device already on the
// island stays on it (mapping.Mapper.Map's rule, precomputed).
type band struct{ lo, hi float64 }

func (b band) holds(v float64) bool { return v >= b.lo && v <= b.hi }

// islandBuckets and bucketsPerVolt shape the island index: 4,096 buckets
// over [0, 4 V). bucketsPerVolt is a power of two, so v*bucketsPerVolt is
// exact and bucket k starts at exactly k/bucketsPerVolt.
const (
	islandBuckets  = 4096
	bucketsPerVolt = 1024
)

// islandIndex maps each voltage bucket k to the first island with
// Hi >= k/bucketsPerVolt. The islands are sorted ascending by voltage and
// disjoint, so no island before it can contain a voltage in the bucket.
type islandIndex [islandBuckets]uint16

func newIslandIndex(islands []mapping.Island) (x islandIndex) {
	c := 0
	for k := range x {
		for c < len(islands) && islands[c].Hi < float64(k)/bucketsPerVolt {
			c++
		}
		x[k] = uint16(c)
	}
	return x
}

// island returns the index of the island containing v, or -1 when v lies
// between islands: the first island with Hi >= v, found by a short forward
// scan from v's bucket, if its Lo <= v. A v below 0 (or past int's range)
// starts the scan at bucket 0, and one at or above 4 V at the last bucket;
// both are exact.
func (s *StateSlab) island(v float64) int {
	c := int(s.firstIsland[min(max(int(v*bucketsPerVolt), 0), islandBuckets-1)])
	for c < len(s.islands) && s.islands[c].Hi < v {
		c++
	}
	if c < len(s.islands) && v >= s.islands[c].Lo {
		return c
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

// code returns the ADC code of v, for v >= 0; volts[code(v)] is v as the
// ADC reads it back.
func (q *adcTables) code(v float64) uint16 {
	k := adcEstimate(v)
	if uint(k) > adc.MaxCode {
		k = adc.MaxCode
	}
	if v < q.thr[k] {
		k--
	}
	return uint16(k)
}

// median3 returns the median of three ADC codes. volts is strictly
// increasing in the code, so volts[median3(a, b, c)] is the median of the
// three readings in volts.
func median3(a, b, c uint16) uint16 { return max(min(a, b), min(max(a, b), c)) }

// FrameEmitter receives one emitted scale frame: the device slot, the
// frame's wire sequence number, the island index it reports and the sweep's
// virtual timestamp in milliseconds. Emission consumes no device RNG and
// mutates no slab state, so a run with an emitter attached ticks through
// random walks bit-identical to a plain run — the networked scale path uses
// it to marshal real v1 frames onto a TCP connection.
type FrameEmitter func(slot int, seq uint16, island int16, atMillis uint32)

// tick advances device i through one firmware cycle — motion, sample,
// quantise, filter, map, emit — with an optional latency accumulator and
// frame emitter: every emitted frame bins its modelled end-to-end latency
// and/or is handed to emit. Nil hooks cost one predictable branch per
// frame, keeping the uninstrumented path identical. It allocates nothing.
//
// The kernel is straight-line: the device's RNG words are loaded once and
// stepped in registers (draw order: retarget, four noise draws, loss), the
// sensor reading is refreshed only when the hand moves, the ADC is a
// multiply, one threshold compare and a table read, the median works on
// codes, and the hysteresis test is one precomputed band, with the bucket
// index only on a miss. It is bit-identical to the stage-by-stage
// reference in soa_ref_test.go.
func (s *StateSlab) tick(i int, bins *latencyBins, emit FrameEmitter, atMillis uint32) {
	r := s.loadRNG(i)
	var u uint64

	// Hand motion: dwell at a reached target, then glide to the next. The
	// sensor reading is a pure function of the distance, so it is cached
	// and only recomputed when the distance changes: at an island centre it
	// is that centre's precomputed reading.
	if s.dwell[i] > 0 {
		s.dwell[i]--
	} else {
		d, tgt, step := s.dist[i], s.target[i], s.step[i]
		target := s.islands[tgt].DistanceCm
		delta := target - d
		if delta <= step && delta >= -step {
			d = target
			s.ideal[i] = s.centreV[tgt]
			s.dwell[i] = s.dwellTicks
			r, u = r.next()
			s.target[i] = s.randomIsland(u)
		} else {
			if delta > 0 {
				d += step
			} else {
				d -= step
			}
			s.ideal[i] = s.sensor.Sample(d)
		}
		s.dist[i] = d
	}

	// Add sensor noise (an Irwin-Hall deviate of four uniforms: unit
	// variance, no transcendental call), then quantise through the 10-bit
	// ADC exactly like the board does. The float64 conversion keeps the
	// noise product rounded on its own, never fused into the add.
	r, u0 := r.next()
	r, u1 := r.next()
	r, u2 := r.next()
	r, u3 := r.next()
	sum := u64ToFloat(u0) + u64ToFloat(u1) + u64ToFloat(u2) + u64ToFloat(u3)
	noise := (sum - 2) * 1.7320508075688772 // sqrt(12/4)
	v := s.ideal[i] + float64(s.noiseSD*noise)
	if v < 0 {
		v = 0
	}
	k := s.adc.code(v)

	// Median3 window over codes, then EMA over volts — the firmware's
	// MedianEMA default.
	w := s.win[3*i : 3*i+3 : 3*i+3]
	n := s.winN[i]
	if n < 3 {
		// Warm-up: pass the raw sample through until the window fills.
		w[n] = k
		s.winN[i] = n + 1
	} else {
		w[0], w[1], w[2] = w[1], w[2], k
		k = median3(w[0], w[1], w[2])
	}
	v = s.adc.volts[k]
	if n == 0 {
		s.ema[i] = v
	} else {
		s.ema[i] += firmware.DefaultEMAAlpha * (v - s.ema[i])
	}
	v = s.ema[i]

	// Island mapping with hysteresis: a device inside its current island's
	// band stays on it; otherwise search. Unlike mapping.Mapper, a device
	// between islands (-1) keeps its current island, so coming back to it
	// emits nothing. Last tick's frame is acked before this tick's mapping,
	// so the window holds at most this tick's frame.
	cur := int(s.cur[i])
	idx := cur
	if cur < 0 || !s.bands[cur].holds(v) {
		idx = s.island(v)
	}
	if idx >= 0 && idx != cur {
		s.cur[i] = int16(idx)
		s.switches[i]++
		s.outstanding[i] = 1
		lost := false
		if s.lossProb > 0 {
			r, u = r.next()
			lost = u64ToFloat(u) < s.lossProb
		}
		s.emitFrame(i, lost, bins, emit, atMillis)
	} else {
		s.outstanding[i] = 0
	}
	s.storeRNG(i, r)
}

// emitFrame accounts one scroll frame through the modelled reliable link:
// a lost first copy is retransmitted and delivered (the ARQ guarantee).
// With a latency accumulator attached it also bins the frame's modelled
// end-to-end latency.
func (s *StateSlab) emitFrame(i int, lost bool, bins *latencyBins, emit FrameEmitter, atMillis uint32) {
	seq := uint16(s.switches[i])
	if lost {
		s.lost[i]++
	}
	if bins != nil {
		bins[latencyBin(i, seq, lost)]++
	}
	if emit != nil {
		// One call per frame regardless of modelled loss: the slab models a
		// reliable link, so every frame is (eventually) delivered exactly
		// once — the emitter carries the post-ARQ stream.
		emit(i, seq, s.cur[i], atMillis)
	}
}

// latencyBins accumulates a sweep's modelled latency observations. The
// model produces only 16 distinct values (8 hash bins × delivered-first-
// try / retransmitted), so the per-frame instrumentation cost is a single
// array increment; TickStripe flushes the bins into the real histogram
// once per stripe sweep.
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

// latencyBin derives a frame's modelled latency bin from a hash of its
// (slot, seq) rather than from the device RNG stream, so instrumented and
// plain runs tick through identical random walks. The base (bins 0-7,
// 8-11.5 ms in 0.5 ms steps) models the firmware path — one 40 ms cycle's
// worth of sampling plus RF and hub time; a lost first copy (bins 8-15)
// adds a 50 ms retransmit round trip. Every value is an exact multiple of
// 0.5 ms, so float64 partial sums are exact and histogram merges are
// independent of stripe grouping.
func latencyBin(i int, seq uint16, lost bool) int {
	z := (uint64(i)<<16 | uint64(seq)) * 0x9e3779b97f4a7c15
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
// firmware cycle. It is the batched per-event unit of work: one scheduler
// event per stripe, not one per device. The caller (one RunScale worker per
// stripe) owns lat and emit exclusively during the tick; a nil lat or emit
// turns that feature off.
//
// With lat, each emitted frame bins its modelled end-to-end latency into a
// stack accumulator, flushed into lat once per sweep, so no synchronisation
// happens on this path and it still allocates nothing. With emit, every
// frame the stripe emits is handed to emit stamped with the sweep's virtual
// time at.
func (s *StateSlab) TickStripe(lo, hi int, at time.Duration, lat *telemetry.LocalHistogram, emit FrameEmitter) {
	atMillis := uint32(at / time.Millisecond)
	var acc latencyBins
	var bins *latencyBins
	if lat != nil {
		bins = &acc
	}
	for i := lo; i < hi; i++ {
		s.tick(i, bins, emit, atMillis)
	}
	if lat != nil {
		acc.flush(lat)
	}
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
		t.Lost += uint64(s.lost[i])
		t.Switches += uint64(s.switches[i])
		t.Outstanding += uint64(s.outstanding[i])
		if s.outstanding[i] > t.MaxWindow {
			t.MaxWindow = s.outstanding[i]
		}
	}
	// Every frame is sent and delivered once, and every lost first copy is
	// retransmitted once.
	t.Sent, t.Delivered, t.Retransmits = t.Switches, t.Switches, t.Lost
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
