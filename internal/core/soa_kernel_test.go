package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
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
// to the stage-by-stage reference kernel: a slab and the reference, each
// built by its own constructor and ticked by its own kernel, must agree bit
// for bit in every field of the old layout (derived from the new one), in
// the latency bins and in the emitted frames after every sweep — across
// seeds and across loss probabilities that never, sometimes and always
// draw a loss.
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
				if r, g, dev := slabDiff(got, ref); r != "" {
					t.Fatalf("seed %d loss %v sweep %d: reference field %s of device %d differs from its derivation from %s",
						seed, loss, sweep, r, dev, g)
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

// slabDiff compares every field of the reference kernel's old layout with
// its derivation from the new one, floats by their bits, and names the
// first reference field, the StateSlab field it is derived from, and the
// device that differ ("", "", -1 when none). The sensor reading cached in
// ideal is checked against the sensor sampled at the reference distance.
func slabDiff(got *StateSlab, ref *refSlab) (refField, gotField string, device int) {
	bits := math.Float64bits
	volts := &got.adc.volts
	fields := []struct {
		ref, got string
		per      int              // elements per device
		same     func(k int) bool // element k of ref equals its derivation
	}{
		{"rng", "rng", 4, func(k int) bool { return ref.rng[k] == got.rng[k] }},
		{"win", "win", 3, func(k int) bool { return bits(ref.win[k]) == bits(volts[got.win[k]]) }},
		{"winN", "winN", 1, func(k int) bool { return ref.winN[k] == got.winN[k] }},
		{"ema", "ema", 1, func(k int) bool { return bits(ref.ema[k]) == bits(got.ema[k]) }},
		{"emaInit", "winN", 1, func(k int) bool { return (ref.emaInit[k] != 0) == (got.winN[k] != 0) }},
		{"dist", "dist", 1, func(k int) bool { return bits(ref.dist[k]) == bits(got.dist[k]) }},
		{"dist", "ideal", 1, func(k int) bool { return bits(ref.sensor.Sample(ref.dist[k])) == bits(got.ideal[k]) }},
		{"target", "target", 1, func(k int) bool {
			c := int(got.target[k])
			return c < len(got.islands) && bits(ref.target[k]) == bits(got.islands[c].DistanceCm)
		}},
		{"step", "step", 1, func(k int) bool { return bits(ref.step[k]) == bits(got.step[k]) }},
		{"dwell", "dwell", 1, func(k int) bool { return ref.dwell[k] == got.dwell[k] }},
		{"cur", "cur", 1, func(k int) bool { return ref.cur[k] == got.cur[k] }},
		{"seq", "switches", 1, func(k int) bool { return ref.seq[k] == uint16(got.switches[k]) }},
		{"outstanding", "outstanding", 1, func(k int) bool { return ref.outstanding[k] == got.outstanding[k] }},
		{"ackPend", "outstanding", 1, func(k int) bool { return ref.ackPend[k] == got.outstanding[k] }},
		{"sent", "switches", 1, func(k int) bool { return ref.sent[k] == got.switches[k] }},
		{"delivered", "switches", 1, func(k int) bool { return ref.delivered[k] == got.switches[k] }},
		{"lost", "lost", 1, func(k int) bool { return ref.lost[k] == got.lost[k] }},
		{"retransmits", "lost", 1, func(k int) bool { return ref.retransmits[k] == got.lost[k] }},
		{"switches", "switches", 1, func(k int) bool { return ref.switches[k] == got.switches[k] }},
	}
	for _, f := range fields {
		for k := 0; k < f.per*got.n; k++ {
			if !f.same(k) {
				return f.ref, f.got, k / f.per
			}
		}
	}
	return "", "", -1
}

// slabSharedFields are the StateSlab and refSlab slices built once per
// slab and never written by a tick; every other slice field is per-device
// state.
var slabSharedFields = map[string]bool{"islands": true, "bands": true, "centreV": true}

// TestSlabDiffCoversEveryField keeps slabDiff complete on both layouts: a
// per-device slice field of StateSlab must be read by the comparison, and
// every per-device field of the reference must be compared.
func TestSlabDiffCoversEveryField(t *testing.T) {
	cfg := SlabConfig{Devices: 2, Seed: 1}
	fresh := func() (*StateSlab, *refSlab) {
		got, err := NewStateSlab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefSlab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return got, ref
	}
	got, ref := fresh()
	if r, g, dev := slabDiff(got, ref); r != "" {
		t.Fatalf("freshly built slabs differ: reference field %s vs %s of device %d", r, g, dev)
	}
	for _, side := range []string{"StateSlab", "refSlab"} {
		pick := func(got *StateSlab, ref *refSlab) reflect.Value {
			if side == "refSlab" {
				return reflect.ValueOf(ref).Elem()
			}
			return reflect.ValueOf(got).Elem()
		}
		typ := pick(fresh()).Type()
		for f := 0; f < typ.NumField(); f++ {
			name := typ.Field(f).Name
			if typ.Field(f).Type.Kind() != reflect.Slice || slabSharedFields[name] {
				continue
			}
			got, ref := fresh()
			// Flip one element of the field and expect slabDiff to see it.
			v := pick(got, ref).Field(f)
			v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Index(0)
			switch v.Kind() {
			case reflect.Float64:
				v.SetFloat(v.Float() + 1)
			case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
				v.SetInt(v.Int() ^ 1)
			default:
				// ^1 keeps a target index on an island.
				v.SetUint(v.Uint() ^ 1)
			}
			r, g, _ := slabDiff(got, ref)
			if reported := map[string]string{"StateSlab": g, "refSlab": r}[side]; reported != name {
				t.Errorf("slabDiff misses %s field %s (reported %q)", side, name, reported)
			}
		}
	}
}

// TestADCQuantiseTable proves the table quantiser equal to the float
// division it replaces. At every code threshold, up to the clamp at
// MaxCode+1, the estimate is the true code or one above it; as both are
// monotone in v, that covers every v >= 0. On top, volts[code(v)] is compared
// with the division at each threshold and one ulp either side, on a 1e-5 V
// sweep over [0, Vref+1], and far above Vref where the code clamps.
func TestADCQuantiseTable(t *testing.T) {
	q := slabADC()
	check := func(v float64) {
		t.Helper()
		if got, want := q.volts[q.code(v)], refQuantise(v); math.Float64bits(got) != math.Float64bits(want) {
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

// TestIslandTableMatchesSearch proves the bucket island index equal to the
// binary search it replaces: at every bucket edge and every island bound,
// one ulp either side of each, on a 1e-5 V sweep over [0, Vref+1], and at
// values past either end of the table's range, for several menu sizes.
func TestIslandTableMatchesSearch(t *testing.T) {
	for _, entries := range []int{2, 5, 12, 40, 255} {
		s, err := NewStateSlab(SlabConfig{Devices: 1, Entries: entries})
		if err != nil {
			t.Fatal(err)
		}
		// Both searches rest on the islands ascending and disjoint.
		for c := 1; c < len(s.islands); c++ {
			if !(s.islands[c-1].Hi < s.islands[c].Lo) {
				t.Fatalf("%d entries: islands %d and %d overlap or are out of order", entries, c-1, c)
			}
		}
		check := func(v float64) {
			t.Helper()
			if got, want := s.island(v), refIsland(s.islands, v); got != want {
				t.Fatalf("%d entries: island(%v) = %d, want %d", entries, v, got, want)
			}
		}
		around := func(v float64) {
			t.Helper()
			check(math.Nextafter(v, math.Inf(-1)))
			check(v)
			check(math.Nextafter(v, math.Inf(1)))
		}
		for k := 0; k <= islandBuckets; k++ {
			around(float64(k) / bucketsPerVolt)
		}
		for _, is := range s.islands {
			around(is.Lo)
			around(is.Hi)
		}
		for v := 0.0; v <= adc.DefaultVref+1; v += 1e-5 {
			check(v)
		}
		for _, v := range []float64{4, 4.5, 7, 100, 1e6, 1e300, math.Inf(1), -1e-300, -0.5, -1e300, math.Inf(-1)} {
			check(v)
		}
	}
}

// TestADCVoltsStrictlyIncreasing pins the premise of the code median: a
// higher ADC code always reads back as a higher voltage, so the median of
// three codes indexes the median of their three voltages.
func TestADCVoltsStrictlyIncreasing(t *testing.T) {
	q := slabADC()
	for k := 1; k <= adc.MaxCode; k++ {
		if !(q.volts[k-1] < q.volts[k]) {
			t.Fatalf("volts[%d] = %v is not below volts[%d] = %v", k-1, q.volts[k-1], k, q.volts[k])
		}
	}
}

// TestCodeMedianMatchesVolts compares the code median with the float
// median of the voltages it replaced: every ordering of ties and extremes,
// then random triples over all 1,024 codes.
func TestCodeMedianMatchesVolts(t *testing.T) {
	q := slabADC()
	check := func(a, b, c uint16) {
		t.Helper()
		got := q.volts[median3(a, b, c)]
		want := refMedian3(q.volts[a], q.volts[b], q.volts[c])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("median3(%d, %d, %d) reads %v, want %v", a, b, c, got, want)
		}
	}
	edge := []uint16{0, 1, 2, 511, adc.MaxCode - 1, adc.MaxCode}
	for _, a := range edge {
		for _, b := range edge {
			for _, c := range edge {
				check(a, b, c)
			}
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 0; n < 1_000_000; n++ {
		check(uint16(rng.IntN(adc.MaxCode+1)), uint16(rng.IntN(adc.MaxCode+1)), uint16(rng.IntN(adc.MaxCode+1)))
	}
}

// TestSlabBytesPerDevice pins the slab's footprint: the live heap a
// 100k-device slab adds, per device, after collection. The shared tables
// are built first, so only the per-device arrays count.
func TestSlabBytesPerDevice(t *testing.T) {
	const devices = 100_000
	if _, err := NewStateSlab(SlabConfig{Devices: 1}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := NewStateSlab(SlabConfig{Devices: devices, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	perDevice := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / devices
	t.Logf("%.1f B per device", perDevice)
	if perDevice > 92 {
		t.Fatalf("slab costs %.1f B per device, want <= 92", perDevice)
	}
}
