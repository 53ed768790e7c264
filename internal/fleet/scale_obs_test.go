package fleet

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// TestScaleMergedMetricsWorkerCountIndependent pins the shard-merge
// contract of the live ops plane: the merged counters and histograms of a
// scale run are a pure function of (Seed, Devices), no matter how many
// stripes the slab was split into. Gauges are excluded — they describe
// wall-clock rates and scheduler occupancy, not the model.
func TestScaleMergedMetricsWorkerCountIndependent(t *testing.T) {
	base := ScaleConfig{Devices: 300, Seed: 7, Duration: 2 * time.Second, LossProb: 0.1}
	var refCounters map[string]uint64
	var refHists map[string]telemetry.HistogramSnapshot
	for i, workers := range []int{1, 4, 16} {
		cfg := base
		cfg.Workers = workers
		cfg.Metrics = telemetry.New()
		if _, err := RunScale(cfg); err != nil {
			t.Fatal(err)
		}
		snap := cfg.Metrics.Snapshot()
		if i == 0 {
			refCounters = snap.Counters
			refHists = snap.Histograms
			if snap.Counters[telemetry.MetricFwCycles] == 0 {
				t.Fatal("merged snapshot has no firmware cycles")
			}
			if h, ok := snap.Histogram(telemetry.MetricHubE2ELatency); !ok || h.Count == 0 {
				t.Fatal("merged snapshot has no e2e latency histogram")
			}
			continue
		}
		if !reflect.DeepEqual(snap.Counters, refCounters) {
			t.Fatalf("merged counters depend on worker count (%d workers):\n%v\nvs\n%v",
				workers, snap.Counters, refCounters)
		}
		if !reflect.DeepEqual(snap.Histograms, refHists) {
			t.Fatalf("merged histograms depend on worker count (%d workers):\n%v\nvs\n%v",
				workers, snap.Histograms, refHists)
		}
	}
}

// TestScaleMergedMetricsMatchResult cross-checks the collector against the
// run's own totals: the canonical counters must agree with ScaleResult and
// the latency histogram must hold one observation per sent frame.
func TestScaleMergedMetricsMatchResult(t *testing.T) {
	reg := telemetry.New()
	res, err := RunScale(ScaleConfig{
		Devices: 200, Seed: 3, Workers: 2, Duration: 2 * time.Second,
		LossProb: 0.2, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	want := map[string]uint64{
		telemetry.MetricFwCycles:         res.Ticks,
		telemetry.MetricFwScrollEvents:   res.Switches,
		telemetry.MetricFwFramesSent:     res.Frames,
		telemetry.MetricRFSent:           res.Frames + res.Retransmits,
		telemetry.MetricRFLost:           res.Lost,
		telemetry.MetricRFDelivered:      res.Delivered,
		telemetry.MetricARQEnqueued:      res.Frames,
		telemetry.MetricARQAcked:         res.Delivered,
		telemetry.MetricARQRetransmits:   res.Retransmits,
		telemetry.MetricHubDecoded:       res.Delivered,
		telemetry.MetricHubEvents:        res.Delivered,
		telemetry.MetricFwIslandSwitches: res.Switches,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	h, ok := snap.Histogram(telemetry.MetricHubE2ELatency)
	if !ok {
		t.Fatal("no e2e latency histogram in merged snapshot")
	}
	if h.Count != res.Frames {
		t.Fatalf("latency observations %d, want one per sent frame (%d)", h.Count, res.Frames)
	}
	if h.P99 <= 0 || h.Sum <= 0 {
		t.Fatalf("degenerate latency histogram: %+v", h)
	}
	for _, g := range []string{
		telemetry.MetricSimDevices, telemetry.MetricSimWorkers,
		telemetry.MetricSimVirtualSeconds, telemetry.MetricSimFramesInFlight,
		telemetry.MetricSimPendingEvents,
	} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("gauge %s missing from merged snapshot", g)
		}
	}
	if got := snap.Gauges[telemetry.MetricSimDevices]; got != 200 {
		t.Errorf("sim_devices = %g, want 200", got)
	}
	if got := snap.Gauges[telemetry.MetricSimVirtualSeconds]; got != 2 {
		t.Errorf("sim_virtual_seconds = %g, want 2 after the run", got)
	}
}

// TestScalePendingEventsGauge pins sim_pending_events to the stripes'
// scheduler queues: each stripe carries one periodic tick event, so the
// gauge reads one per stripe, in a snapshot taken mid-run from inside a
// sweep (after at least two publishes) as well as after the run. The
// mid-run publish happens inside the tick, when the scheduler has popped the
// event in flight; counting only the queue there read 0.
func TestScalePendingEventsGauge(t *testing.T) {
	reg := telemetry.New()
	var flushes int
	mid := -1.0
	_, err := RunScale(ScaleConfig{
		Devices: 100, Seed: 5, Workers: 1, Duration: 4 * time.Second, Metrics: reg,
		Emit: func(worker, lo, hi int) (*StripeSink, error) {
			return &StripeSink{
				Emit: func(int, uint16, int16, uint32) {},
				Flush: func() error {
					// 60 sweeps of 40 ms: past the publishes at 1 s and 2 s.
					if flushes++; flushes == 60 {
						mid = reg.Snapshot().Gauges[telemetry.MetricSimPendingEvents]
					}
					return nil
				},
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mid != 1 {
		t.Errorf("mid-run sim_pending_events = %g, want 1 (one tick event per stripe)", mid)
	}
	if got := reg.Snapshot().Gauges[telemetry.MetricSimPendingEvents]; got != 1 {
		t.Errorf("post-run sim_pending_events = %g, want 1", got)
	}

	reg = telemetry.New()
	if _, err := RunScale(ScaleConfig{Devices: 90, Seed: 5, Workers: 3, Duration: 2 * time.Second, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges[telemetry.MetricSimPendingEvents]; got != 3 {
		t.Errorf("post-run sim_pending_events over 3 stripes = %g, want 3", got)
	}
}

// TestScaleInstrumentedMatchesPlain pins that attaching a registry does not
// perturb the simulation itself: the modelled latency draws come from a
// (slot, seq) hash, not the device RNG stream.
func TestScaleInstrumentedMatchesPlain(t *testing.T) {
	cfg := ScaleConfig{Devices: 250, Seed: 11, Workers: 3, Duration: 2 * time.Second, LossProb: 0.05}
	plain, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = telemetry.New()
	inst, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scaleCounters(plain) != scaleCounters(inst) {
		t.Fatalf("instrumentation changed the simulation:\nplain %+v\ninstrumented %+v",
			scaleCounters(plain), scaleCounters(inst))
	}
}

// TestScaleOnReport exercises the live feed: a mid-run wall-clock reporter
// must observe the canonical counters moving.
func TestScaleOnReport(t *testing.T) {
	reg := telemetry.New()
	var reports atomic.Uint64
	_, err := RunScale(ScaleConfig{
		Devices: 5_000, Seed: 1, Workers: 2, Duration: 20 * time.Second,
		Metrics: reg, ReportEvery: 10 * time.Millisecond,
		OnReport: func(s *telemetry.Snapshot) {
			if s.Counters[telemetry.MetricFwCycles] > 0 {
				reports.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reports.Load() == 0 {
		t.Fatal("no report saw a nonzero cycle counter (final snapshot alone should)")
	}
}

// TestSlabTickObservedZeroAlloc pins the instrumented tick path: advancing
// a stripe with a latency shard attached must still not allocate.
func TestSlabTickObservedZeroAlloc(t *testing.T) {
	slab, err := core.NewStateSlab(core.SlabConfig{Devices: 256, Seed: 9, LossProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	lat := telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs)
	at := time.Duration(0)
	allocs := testing.AllocsPerRun(100, func() {
		at += 40 * time.Millisecond
		slab.TickStripe(0, slab.Len(), at, lat, nil)
	})
	if allocs != 0 {
		t.Fatalf("observed slab tick allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestScaleShardPublishZeroAlloc pins the publish path after warm-up: the
// periodic copy into the published snapshot must reuse its slices.
func TestScaleShardPublishZeroAlloc(t *testing.T) {
	lat := telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs)
	for i := 0; i < 100; i++ {
		lat.Observe(float64(i))
	}
	var snap telemetry.HistogramSnapshot
	lat.SnapshotInto(&snap) // warm-up copy sizes the slices
	allocs := testing.AllocsPerRun(100, func() {
		lat.Observe(3)
		lat.SnapshotInto(&snap)
	})
	if allocs != 0 {
		t.Fatalf("shard publish allocates %.1f allocs/op after warm-up, want 0", allocs)
	}
}
