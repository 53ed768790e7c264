package core

import (
	"github.com/hcilab/distscroll/internal/adc"
	"github.com/hcilab/distscroll/internal/firmware"
	"github.com/hcilab/distscroll/internal/gp2d120"
	"github.com/hcilab/distscroll/internal/mapping"
)

// The reference slab kernel: the firmware cycle as it was first written,
// in the slab's original 18-array layout, one helper call per stage, the
// RNG stepped through slab memory on every draw, the sensor sampled every
// tick, the median taken over volts, the hysteresis band recomputed per
// tick, the islands binary-searched and the ADC quantised by float
// division. It holds its own state and builds it with its own constructor,
// so it is the oracle the straight-line tick in soa.go is proven
// bit-identical against (TestSlabKernelMatchesReference).

// refSlab is the reference kernel's per-device state and shared tables.
type refSlab struct {
	n int

	rng     []uint64
	win     []float64
	winN    []uint8
	ema     []float64
	emaInit []uint8

	dist   []float64
	target []float64
	step   []float64
	dwell  []int16

	cur []int16

	seq         []uint16
	outstanding []uint16
	ackPend     []uint16
	sent        []uint32
	delivered   []uint32
	lost        []uint32
	retransmits []uint32
	switches    []uint32

	islands    []mapping.Island
	hyst       float64
	sensor     *gp2d120.Sensor
	noiseSD    float64
	lossProb   float64
	dwellTicks int16
}

// newRefSlab builds the reference state the way NewStateSlab first did.
func newRefSlab(cfg SlabConfig) (*refSlab, error) {
	n := cfg.Devices
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
		return nil, err
	}
	mapper, err := mapping.New(mapping.DefaultConfig(entries), sensor.Ideal)
	if err != nil {
		return nil, err
	}
	s := &refSlab{
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
		x := cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
		for w := 0; w < 4; w++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			s.rng[4*i+w] = z ^ (z >> 31)
		}
		s.cur[i] = -1
		s.dist[i] = s.refIslandCenter(s.refNextU64(i))
		s.target[i] = s.refIslandCenter(s.refNextU64(i))
		s.step[i] = 1.5 + 1.5*u64ToFloat(s.refNextU64(i))
		s.dwell[i] = int16(s.refNextU64(i) % uint64(cfg.DwellTicks))
	}
	return s, nil
}

// refIslandCenter maps a random draw to a random island's physical centre.
func (s *refSlab) refIslandCenter(u uint64) float64 {
	return s.islands[u%uint64(len(s.islands))].DistanceCm
}

// refNextU64 advances device i's packed xoshiro256** state in place.
func (s *refSlab) refNextU64(i int) uint64 {
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

// refApproxNorm is the Irwin-Hall deviate of four uniforms.
func (s *refSlab) refApproxNorm(i int) float64 {
	sum := u64ToFloat(s.refNextU64(i)) + u64ToFloat(s.refNextU64(i)) +
		u64ToFloat(s.refNextU64(i)) + u64ToFloat(s.refNextU64(i))
	return (sum - 2) * 1.7320508075688772 // sqrt(12/4): unit variance
}

// refQuantise is the truncating 10-bit ADC and its reconstruction.
func refQuantise(v float64) float64 {
	code := int(v / adc.DefaultVref * float64(adc.MaxCode+1)) // truncating ADC
	if code > adc.MaxCode {
		code = adc.MaxCode
	}
	return float64(code) * adc.DefaultVref / float64(adc.MaxCode+1)
}

// refMedian3 is the median of three volts by compare-and-swap.
func refMedian3(a, b, c float64) float64 {
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

// refIsland is the binary search over the islands, sorted ascending by
// voltage and disjoint: the index of the island containing v, or -1.
func refIsland(islands []mapping.Island, v float64) int {
	lo, hi := 0, len(islands)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		is := &islands[mid]
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

// refTick advances device i through one firmware cycle.
func (s *refSlab) refTick(i int, bins *latencyBins, emit FrameEmitter, atMillis uint32) {
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
			s.target[i] = s.refIslandCenter(s.refNextU64(i))
		} else if delta > 0 {
			d += step
		} else {
			d -= step
		}
		s.dist[i] = d
	}

	v := s.sensor.Sample(d) + s.noiseSD*s.refApproxNorm(i)
	if v < 0 {
		v = 0
	}
	v = refQuantise(v)

	w := s.win[3*i : 3*i+3 : 3*i+3]
	if s.winN[i] < 3 {
		w[s.winN[i]] = v
		s.winN[i]++
	} else {
		w[0], w[1], w[2] = w[1], w[2], v
		v = refMedian3(w[0], w[1], w[2])
	}
	if s.emaInit[i] == 0 {
		s.ema[i] = v
		s.emaInit[i] = 1
	} else {
		s.ema[i] += firmware.DefaultEMAAlpha * (v - s.ema[i])
	}
	v = s.ema[i]

	if s.ackPend[i] > 0 {
		s.outstanding[i] -= s.ackPend[i]
		s.ackPend[i] = 0
	}

	idx := s.refMapVoltage(i, v)
	if idx >= 0 && idx != int(s.cur[i]) {
		s.cur[i] = int16(idx)
		s.switches[i]++
		s.refEmitFrame(i, bins, emit, atMillis)
	} else if idx >= 0 {
		s.cur[i] = int16(idx)
	}
}

// refMapVoltage returns the islands index selected by v, honouring the
// hysteresis of the device's current island, or -1.
func (s *refSlab) refMapVoltage(i int, v float64) int {
	if c := s.cur[i]; c >= 0 {
		is := &s.islands[c]
		h := s.hyst * (is.Hi - is.Lo) / 2
		if v >= is.Lo-h && v <= is.Hi+h {
			return int(c)
		}
	}
	return refIsland(s.islands, v)
}

// refEmitFrame accounts one scroll frame, drawing its loss from the slab
// RNG.
func (s *refSlab) refEmitFrame(i int, bins *latencyBins, emit FrameEmitter, atMillis uint32) {
	s.seq[i]++
	s.sent[i]++
	s.outstanding[i]++
	s.ackPend[i]++
	lost := s.lossProb > 0 && u64ToFloat(s.refNextU64(i)) < s.lossProb
	if lost {
		s.lost[i]++
		s.retransmits[i]++
	}
	s.delivered[i]++
	if bins != nil {
		bins[latencyBin(i, s.seq[i], lost)]++
	}
	if emit != nil {
		emit(i, s.seq[i], s.cur[i], atMillis)
	}
}
