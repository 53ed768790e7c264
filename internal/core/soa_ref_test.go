package core

import (
	"github.com/hcilab/distscroll/internal/adc"
	"github.com/hcilab/distscroll/internal/firmware"
	"github.com/hcilab/distscroll/internal/mapping"
)

// The reference slab kernel: the firmware cycle as it was first written,
// one helper call per stage, the RNG stepped through slab memory on every
// draw, the hysteresis band recomputed per tick and the ADC quantised by
// float division. It is the oracle the straight-line tick in soa.go is
// proven bit-identical against (TestSlabKernelMatchesReference).

// refSlab ticks a StateSlab's arrays with the reference kernel; hyst is the
// mapper's hysteresis the slab was built with.
type refSlab struct {
	*StateSlab
	hyst float64
}

func newRefSlab(cfg SlabConfig) (refSlab, error) {
	s, err := NewStateSlab(cfg)
	if err != nil {
		return refSlab{}, err
	}
	return refSlab{s, mapping.DefaultConfig(len(s.islands)).Hysteresis}, nil
}

// refNextU64 advances device i's packed xoshiro256** state in place.
func (s refSlab) refNextU64(i int) uint64 {
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
func (s refSlab) refApproxNorm(i int) float64 {
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

// refTick advances device i through one firmware cycle.
func (s refSlab) refTick(i int, bins *latencyBins, emit FrameEmitter, atMillis uint32) {
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
			s.target[i] = s.islandCenter(s.refNextU64(i))
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
		v = median3(w[0], w[1], w[2])
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
func (s refSlab) refMapVoltage(i int, v float64) int {
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

// refEmitFrame accounts one scroll frame, drawing its loss from the slab
// RNG.
func (s refSlab) refEmitFrame(i int, bins *latencyBins, emit FrameEmitter, atMillis uint32) {
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
		bins[s.latencyBin(i, lost)]++
	}
	if emit != nil {
		emit(i, s.seq[i], s.cur[i], atMillis)
	}
}
