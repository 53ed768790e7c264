package fleet

import (
	"fmt"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/core"
)

func TestScaleValidation(t *testing.T) {
	if _, err := RunScale(ScaleConfig{Devices: 0}); err == nil {
		t.Fatal("zero-device scale run accepted")
	}
}

// scaleCounters strips the timing fields so runs are comparable.
func scaleCounters(r ScaleResult) ScaleResult {
	r.WallSeconds = 0
	r.RealTimeFactor = 0
	r.TicksPerSecond = 0
	return r
}

func TestScaleDeterministicAcrossRuns(t *testing.T) {
	cfg := ScaleConfig{Devices: 500, Seed: 42, Workers: 4, Duration: 2 * time.Second, LossProb: 0.05}
	a, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scaleCounters(a) != scaleCounters(b) {
		t.Fatalf("scale run not deterministic:\n%+v\nvs\n%+v", scaleCounters(a), scaleCounters(b))
	}
	if a.Frames == 0 || a.Switches == 0 {
		t.Fatalf("scale run produced no traffic: %+v", a)
	}
}

// TestScaleWorkerCountIndependent pins the striping contract: every
// per-device stream derives from (seed, slot) alone, so the worker count
// must not change any counter.
func TestScaleWorkerCountIndependent(t *testing.T) {
	base := ScaleConfig{Devices: 300, Seed: 7, Duration: 2 * time.Second, LossProb: 0.1}
	var ref ScaleResult
	for i, workers := range []int{1, 3, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := RunScale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got.Workers = 0
		got = scaleCounters(got)
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("results depend on worker count:\n%d workers: %+v\nvs\n%+v", workers, got, ref)
		}
	}
}

// TestScaleGoldenTotals pins the scale path's results at one seed to the
// perfbench scale workload's smoke reference: any change to the slab
// kernel, its construction or the striping shows up here as a different
// total, not only as a broken invariant.
func TestScaleGoldenTotals(t *testing.T) {
	res, err := RunScale(ScaleConfig{Devices: 20_000, Seed: 1, Workers: 1, Duration: time.Second, LossProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("ticks=%d frames=%d delivered=%d lost=%d switches=%d retransmits=%d",
		res.Ticks, res.Frames, res.Delivered, res.Lost, res.Switches, res.Retransmits)
	const want = "ticks=500000 frames=137463 delivered=137463 lost=1367 switches=137463 retransmits=1367"
	if got != want {
		t.Fatalf("scale totals at seed 1:\n got %s\nwant %s", got, want)
	}
}

func TestScaleLossAccounting(t *testing.T) {
	res, err := RunScale(ScaleConfig{Devices: 200, Seed: 3, Workers: 2, Duration: 2 * time.Second, LossProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost == 0 || res.Retransmits != res.Lost {
		t.Fatalf("loss accounting: %+v", res)
	}
	// The modelled ARQ guarantees delivery: every sent frame arrives.
	if res.Delivered != res.Frames {
		t.Fatalf("delivered %d != frames %d under reliable model", res.Delivered, res.Frames)
	}
	if res.MaxWindow == 0 {
		t.Fatal("ARQ window bookkeeping never saw an outstanding frame")
	}
}

// TestScaleSmoke100k is the CI large-fleet gate: 100k packed devices, a
// short virtual horizon, and the aggregate virtual seconds must beat the
// wall clock (the faster-than-real-time criterion at the 100k point).
func TestScaleSmoke100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k smoke skipped in -short")
	}
	res, err := RunScale(ScaleConfig{Devices: 100_000, Seed: 1, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 {
		t.Fatal("100k fleet produced no frames")
	}
	if res.RealTimeFactor < 1 {
		t.Fatalf("100k devices slower than real time: factor %.2f (%.1f virtual s in %.1f wall s)",
			res.RealTimeFactor, res.VirtualSeconds, res.WallSeconds)
	}
	t.Logf("100k devices: %.0fx real time, %.0f ticks/s, %d frames",
		res.RealTimeFactor, res.TicksPerSecond, res.Frames)
}

// TestSlabTickZeroAlloc pins the batched tick path: advancing a stripe
// must not allocate.
func TestSlabTickZeroAlloc(t *testing.T) {
	slab, err := core.NewStateSlab(core.SlabConfig{Devices: 256, Seed: 9, LossProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Duration(0)
	allocs := testing.AllocsPerRun(100, func() {
		at += 40 * time.Millisecond
		slab.TickStripe(0, slab.Len(), at, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("slab tick allocates %.1f allocs/op, want 0", allocs)
	}
}
