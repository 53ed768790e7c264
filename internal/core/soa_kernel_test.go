package core

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/hcilab/distscroll/internal/adc"
)

// slabFrame is one frame handed to a FrameEmitter.
type slabFrame struct {
	slot     int
	seq      uint16
	island   int16
	atMillis uint32
}

// TestSlabKernelMatchesReference proves the straight-line tick equivalent
// to the stage-by-stage reference kernel: two slabs built alike, one ticked
// by each, must agree bit for bit in every per-device field, in the latency
// bins and in the emitted frames after every sweep — across seeds and
// across loss probabilities that never, sometimes and always draw a loss.
func TestSlabKernelMatchesReference(t *testing.T) {
	const devices, sweeps = 48, 200
	for seed := uint64(1); seed <= 20; seed++ {
		for _, loss := range []float64{0, 0.01, 1} {
			cfg := SlabConfig{Devices: devices, Seed: seed, LossProb: loss}
			got, err := NewStateSlab(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRefSlab(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var gotBins, refBins latencyBins
			var gotFrames, refFrames []slabFrame
			frames := 0
			gotEmit := func(slot int, seq uint16, island int16, at uint32) {
				gotFrames = append(gotFrames, slabFrame{slot, seq, island, at})
			}
			refEmit := func(slot int, seq uint16, island int16, at uint32) {
				refFrames = append(refFrames, slabFrame{slot, seq, island, at})
			}
			for sweep := 1; sweep <= sweeps; sweep++ {
				at := uint32(40 * sweep)
				for i := 0; i < devices; i++ {
					got.tick(i, &gotBins, gotEmit, at)
					ref.refTick(i, &refBins, refEmit, at)
				}
				if field, dev := slabDiff(got, ref.StateSlab); field != "" {
					t.Fatalf("seed %d loss %v sweep %d: field %s of device %d differs from the reference kernel",
						seed, loss, sweep, field, dev)
				}
				if gotBins != refBins || !slices.Equal(gotFrames, refFrames) {
					t.Fatalf("seed %d loss %v sweep %d: emitted frames or latency bins differ from the reference kernel",
						seed, loss, sweep)
				}
				frames += len(gotFrames)
				gotFrames, refFrames = gotFrames[:0], refFrames[:0]
			}
			if frames == 0 {
				t.Fatalf("seed %d loss %v: no frames in %d sweeps", seed, loss, sweeps)
			}
		}
	}
}

// slabDiff compares every per-device field of two slabs, floats by their
// bits, and names the first field and device that differ ("" when none).
func slabDiff(a, b *StateSlab) (field string, device int) {
	fields := []struct {
		name string
		at   int // first differing element, -1 when equal
		per  int // elements per device
	}{
		{"rng", diff(a.rng, b.rng), 4},
		{"win", diffBits(a.win, b.win), 3},
		{"winN", diff(a.winN, b.winN), 1},
		{"ema", diffBits(a.ema, b.ema), 1},
		{"emaInit", diff(a.emaInit, b.emaInit), 1},
		{"dist", diffBits(a.dist, b.dist), 1},
		{"target", diffBits(a.target, b.target), 1},
		{"step", diffBits(a.step, b.step), 1},
		{"dwell", diff(a.dwell, b.dwell), 1},
		{"cur", diff(a.cur, b.cur), 1},
		{"seq", diff(a.seq, b.seq), 1},
		{"outstanding", diff(a.outstanding, b.outstanding), 1},
		{"ackPend", diff(a.ackPend, b.ackPend), 1},
		{"sent", diff(a.sent, b.sent), 1},
		{"delivered", diff(a.delivered, b.delivered), 1},
		{"lost", diff(a.lost, b.lost), 1},
		{"retransmits", diff(a.retransmits, b.retransmits), 1},
		{"switches", diff(a.switches, b.switches), 1},
	}
	for _, f := range fields {
		if f.at >= 0 {
			return f.name, f.at / f.per
		}
	}
	return "", -1
}

// slabSharedFields are the StateSlab slices built once per slab and never
// written by a tick; every other slice field is per-device state.
var slabSharedFields = map[string]bool{"islands": true, "bands": true}

// TestSlabDiffCoversEveryField keeps slabDiff complete: a per-device slice
// field added to StateSlab must be added to the comparison too.
func TestSlabDiffCoversEveryField(t *testing.T) {
	s, err := NewStateSlab(SlabConfig{Devices: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(*s)
	for f := 0; f < typ.NumField(); f++ {
		name := typ.Field(f).Name
		if typ.Field(f).Type.Kind() != reflect.Slice || slabSharedFields[name] {
			continue
		}
		b, err := NewStateSlab(SlabConfig{Devices: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Flip one element of the field in b and expect slabDiff to see it.
		v := reflect.ValueOf(b).Elem().Field(f)
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Index(0)
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
			v.SetInt(v.Int() + 1)
		default:
			v.SetUint(v.Uint() + 1)
		}
		if got, _ := slabDiff(s, b); got != name {
			t.Errorf("slabDiff misses per-device field %s (reported %q)", name, got)
		}
	}
}

// diff returns the first index at which a and b differ, or -1.
func diff[T comparable](a, b []T) int {
	for k := range a {
		if a[k] != b[k] {
			return k
		}
	}
	return -1
}

// diffBits is diff for floats, comparing bits.
func diffBits(a, b []float64) int {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return k
		}
	}
	return -1
}

// TestADCQuantiseTable proves the table quantiser equal to the float
// division it replaces. At every code threshold, up to the clamp at
// MaxCode+1, the estimate is the true code or one above it; as both are
// monotone in v, that covers every v >= 0. On top, quantise is compared
// with the division at each threshold and one ulp either side, on a 1e-5 V
// sweep over [0, Vref+1], and far above Vref where the code clamps.
func TestADCQuantiseTable(t *testing.T) {
	q := slabADC()
	check := func(v float64) {
		t.Helper()
		if got, want := q.quantise(v), refQuantise(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("quantise(%v) = %v, want %v", v, got, want)
		}
	}
	for k := 1; k <= adc.MaxCode+1; k++ {
		th := adcThreshold(k)
		below := math.Nextafter(th, 0)
		if adcCode(th) != k || adcCode(below) != k-1 {
			t.Fatalf("threshold %d = %v is not the least v with code %d", k, th, k)
		}
		if k <= adc.MaxCode && q.thr[k] != th {
			t.Fatalf("thr[%d] = %v, want %v", k, q.thr[k], th)
		}
		if e := adcEstimate(th); e != k && e != k+1 {
			t.Fatalf("estimate at threshold %d is %d, want %d or %d", k, e, k, k+1)
		}
		if e := adcEstimate(below); e != k-1 && e != k {
			t.Fatalf("estimate one ulp below threshold %d is %d, want %d or %d", k, e, k-1, k)
		}
		check(th)
		check(below)
		check(math.Nextafter(th, math.Inf(1)))
	}
	for v := 0.0; v <= adc.DefaultVref+1; v += 1e-5 {
		check(v)
	}
	for _, v := range []float64{0, math.SmallestNonzeroFloat64, adc.DefaultVref, 7, 100, 1e6, 1e12} {
		check(v)
	}
}
