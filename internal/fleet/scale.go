package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// ScaleConfig parameterises a struct-of-arrays scale run: the path that
// takes the fleet from tens of thousands of full *Device graphs to a
// million packed slab devices (see core.StateSlab and DESIGN.md §11).
type ScaleConfig struct {
	// Devices is the fleet size.
	Devices int
	// Seed derives every device stream; results are a pure function of
	// (Seed, Devices), independent of Workers.
	Seed uint64
	// Workers is the number of stripes the slab is split into, one worker
	// goroutine per stripe, each driving its own event scheduler.
	// <= 0 takes GOMAXPROCS.
	Workers int
	// Duration is the virtual time each device simulates (default 10 s).
	Duration time.Duration
	// SamplePeriod is the firmware tick (default 40 ms, the prototype's
	// 25 Hz loop).
	SamplePeriod time.Duration
	// Entries sizes the mapped menu (default 12, the flat fleet menu).
	Entries int
	// LossProb is the modelled per-frame loss probability.
	LossProb float64

	// Metrics, when non-nil, turns on the live ops plane for this run:
	// each worker owns a per-stripe telemetry shard (plain counters and a
	// LocalHistogram — no atomics on the tick path, still 0 allocs/op)
	// and periodically publishes it; a Collector registered here merges
	// the shards on every Snapshot into the canonical fw_*/rf_*/arq_*/
	// hub_* names plus the sim_* engine gauges. The merged counters and
	// histograms are deterministic and worker-count independent; the
	// gauges describe the machine (wall-clock rates, pending events).
	// The collector stays registered after the run ends, so a post-run
	// scrape reads the final totals.
	Metrics *telemetry.Registry
	// ReportEvery, with OnReport, emits a merged snapshot at this
	// wall-clock interval during the run (plus one final snapshot).
	ReportEvery time.Duration
	// OnReport receives each periodic snapshot. Ignored without Metrics.
	OnReport func(*telemetry.Snapshot)

	// Emit, when set, is called once per worker before its stripe starts
	// and returns the stripe's frame sink: every frame the slab emits is
	// handed to the sink on the worker's own goroutine, the sink is
	// flushed once per sweep, and closed when the stripe completes. This
	// is how a scale run exports its frame stream off-box — the hubnet
	// client's FrameSender satisfies the contract over one TCP
	// connection per worker. Emission never consumes randomness, so a
	// run's results are bit-identical with or without it.
	Emit func(worker, lo, hi int) (*StripeSink, error)
}

// StripeSink receives one stripe's emitted frames. Emit must not be nil;
// Flush and Close may be.
type StripeSink struct {
	// Emit receives each frame the stripe's devices send.
	Emit core.FrameEmitter
	// Flush runs once per sweep (one firmware cycle across the stripe) —
	// the batching boundary for buffered network senders.
	Flush func() error
	// Close runs when the stripe has simulated its full duration.
	Close func() error
}

// ScaleResult is the outcome of one scale run.
type ScaleResult struct {
	Devices int
	Workers int
	// Ticks is the total number of firmware cycles executed.
	Ticks uint64
	// Frames/Delivered/Lost/Retransmits/Switches aggregate the slab's wire
	// accounting; MaxWindow is the widest ARQ window any device reached.
	Frames      uint64
	Delivered   uint64
	Lost        uint64
	Retransmits uint64
	Switches    uint64
	MaxWindow   uint16
	// VirtualSeconds is the aggregate simulated time (Devices × Duration);
	// WallSeconds the wall-clock cost; RealTimeFactor their ratio — above
	// 1.0 the box simulates the whole fleet faster than real time.
	VirtualSeconds float64
	WallSeconds    float64
	RealTimeFactor float64
	// TicksPerSecond is the firmware-cycle throughput against wall time.
	TicksPerSecond float64
}

// scaleShard is one worker's telemetry stripe. The owner-side fields are
// touched on the tick path by exactly one goroutine with no
// synchronisation; publish copies them under mu at a coarse cadence
// (~1 s of virtual time), and the registry collector reads only the
// published copies — so a mid-run scrape never races the hot loop and
// never waits on it.
type scaleShard struct {
	lo, hi int

	// Owner-only: written by the stripe's worker, never read elsewhere.
	lat    *telemetry.LocalHistogram
	ticks  uint64
	sweeps uint64

	mu         sync.Mutex
	pubTicks   uint64
	pubTotals  core.SlabTotals
	pubLat     telemetry.HistogramSnapshot
	pubVirtual time.Duration
	pubPending int
	pubElapsed float64
}

// publish copies the shard's live state into its published fields. Runs on
// the worker goroutine between sweeps; cost is one stripe walk for totals
// plus a histogram copy, amortised to noise by the coarse cadence. pending
// is the stripe scheduler's queued events, counted by the caller because
// only it knows whether a tick is in flight.
func (sh *scaleShard) publish(slab *core.StateSlab, pending int, at time.Duration, start time.Time) {
	totals := slab.Totals(sh.lo, sh.hi)
	elapsed := time.Since(start).Seconds()
	sh.mu.Lock()
	sh.pubTicks = sh.ticks
	sh.pubTotals = totals
	sh.lat.SnapshotInto(&sh.pubLat)
	sh.pubVirtual = at
	sh.pubPending = pending
	sh.pubElapsed = elapsed
	sh.mu.Unlock()
}

// scaleCollector merges published shard state into a snapshot. Shards are
// visited in stripe order and every merged quantity is either an integer
// sum or a float64 sum of exactly-representable values (see
// core.StateSlab's latency model), so the merged counters and histograms
// do not depend on the worker count.
type scaleCollector struct {
	cfg     ScaleConfig
	workers int
	shards  []*scaleShard
}

func (sc *scaleCollector) collect(s *telemetry.Snapshot) {
	var ticks uint64
	var totals core.SlabTotals
	var pending int
	minVirtual := time.Duration(-1)
	var maxElapsed float64
	for _, sh := range sc.shards {
		sh.mu.Lock()
		ticks += sh.pubTicks
		totals.Sent += sh.pubTotals.Sent
		totals.Delivered += sh.pubTotals.Delivered
		totals.Lost += sh.pubTotals.Lost
		totals.Retransmits += sh.pubTotals.Retransmits
		totals.Switches += sh.pubTotals.Switches
		totals.Outstanding += sh.pubTotals.Outstanding
		if sh.pubTotals.MaxWindow > totals.MaxWindow {
			totals.MaxWindow = sh.pubTotals.MaxWindow
		}
		if len(sh.pubLat.Bounds) > 0 {
			s.MergeHistogram(telemetry.MetricHubE2ELatency, sh.pubLat)
		}
		if minVirtual < 0 || sh.pubVirtual < minVirtual {
			minVirtual = sh.pubVirtual
		}
		if sh.pubElapsed > maxElapsed {
			maxElapsed = sh.pubElapsed
		}
		pending += sh.pubPending
		sh.mu.Unlock()
	}
	if minVirtual < 0 {
		minVirtual = 0
	}

	s.AddCounter(telemetry.MetricFwCycles, ticks)
	totals.Contribute(s)

	s.SetGauge(telemetry.MetricSimDevices, float64(sc.cfg.Devices))
	s.SetGauge(telemetry.MetricSimWorkers, float64(sc.workers))
	// The slowest stripe's virtual clock: the fleet as a whole has
	// simulated at least this far.
	s.SetGauge(telemetry.MetricSimVirtualSeconds, minVirtual.Seconds())
	s.SetGauge(telemetry.MetricSimFramesInFlight, float64(totals.Outstanding))
	s.SetGauge(telemetry.MetricSimPendingEvents, float64(pending))
	if maxElapsed > 0 {
		tps := float64(ticks) / maxElapsed
		s.SetGauge(telemetry.MetricSimTicksPerSec, tps)
		s.SetGauge(telemetry.MetricSimDevSecPerSec, tps*sc.cfg.SamplePeriod.Seconds())
	}
}

// RunScale simulates a packed slab fleet: Workers stripes of contiguous
// devices, each stripe driven by its own virtual clock and event scheduler
// whose single periodic event advances the whole stripe through one
// firmware cycle per event. Construction is batched (one slab,
// no per-device allocation) and the tick path allocates nothing, which is
// what lets one box push a million devices faster than real time.
//
// With cfg.Metrics set the run is live-observable: scraping the registry
// mid-run (see internal/ops) reads each stripe's most recently published
// telemetry without touching the hot loop.
func RunScale(cfg ScaleConfig) (ScaleResult, error) {
	if cfg.Devices < 1 {
		return ScaleResult{}, fmt.Errorf("fleet: need at least 1 device, got %d", cfg.Devices)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = 40 * time.Millisecond
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Devices {
		workers = cfg.Devices
	}

	slab, err := core.NewStateSlab(core.SlabConfig{
		Devices:  cfg.Devices,
		Seed:     cfg.Seed,
		Entries:  cfg.Entries,
		LossProb: cfg.LossProb,
	})
	if err != nil {
		return ScaleResult{}, err
	}

	res := ScaleResult{Devices: cfg.Devices, Workers: workers}
	ticksPerDevice := uint64(cfg.Duration / cfg.SamplePeriod)
	stripe := (cfg.Devices + workers - 1) / workers

	// publishSweeps spaces shard publishes about one second of virtual
	// time apart: frequent enough for a 1 Hz scrape to see motion, coarse
	// enough that the copy cost disappears into the stripe walk.
	publishSweeps := uint64(time.Second / cfg.SamplePeriod)
	if publishSweeps < 1 {
		publishSweeps = 1
	}

	var shards []*scaleShard
	var reporter *telemetry.Reporter
	observed := cfg.Metrics != nil
	if observed {
		shards = make([]*scaleShard, workers)
		for w := range shards {
			lo := w * stripe
			hi := lo + stripe
			if hi > cfg.Devices {
				hi = cfg.Devices
			}
			shards[w] = &scaleShard{
				lo:  lo,
				hi:  hi,
				lat: telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs),
			}
		}
		cfg.Metrics.RegisterCollector((&scaleCollector{cfg: cfg, workers: workers, shards: shards}).collect)
		if cfg.OnReport != nil {
			reporter = telemetry.StartReporter(cfg.Metrics, cfg.ReportEvery, cfg.OnReport)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo := w * stripe
		hi := lo + stripe
		if hi > cfg.Devices {
			hi = cfg.Devices
		}
		go func(w, lo, hi int) {
			defer wg.Done()
			// One event = one stripe sweep: the scheduler carries a
			// single periodic event, so its hot path stays allocation-free
			// and the per-tick cost is the linear walk over the stripe.
			clock := sim.NewClock(0)
			sched := sim.NewScheduler(clock)
			var sink *StripeSink
			if cfg.Emit != nil {
				var err error
				if sink, err = cfg.Emit(w, lo, hi); err != nil {
					errs[w] = fmt.Errorf("emit sink for stripe %d: %w", w, err)
					return
				}
			}
			// flush batches the sweep's emitted frames out; the first
			// sink error is kept, emission after it is the sink's problem
			// (network senders go dark rather than wedging the tick loop).
			var sinkErr error
			flush := func() {
				if sink != nil && sink.Flush != nil {
					if err := sink.Flush(); err != nil && sinkErr == nil {
						sinkErr = err
					}
				}
			}
			var sh *scaleShard
			var lat *telemetry.LocalHistogram
			if observed {
				sh = shards[w]
				lat = sh.lat
			}
			var emit core.FrameEmitter
			if sink != nil {
				emit = sink.Emit
			}
			sched.Every(cfg.SamplePeriod, func(at time.Duration) {
				slab.TickStripe(lo, hi, at, lat, emit)
				flush()
				if sh == nil {
					return
				}
				sh.ticks += uint64(hi - lo)
				sh.sweeps++
				if sh.sweeps%publishSweeps == 0 {
					// The running tick was popped before this callback and
					// Every re-queues it after: count it, so the gauge
					// reads the same mid-run as after the run.
					sh.publish(slab, sched.Pending()+1, at, start)
				}
			})
			errs[w] = sched.Run(cfg.Duration)
			if sh != nil {
				// Final publish so post-run scrapes read the complete
				// stripe, whatever the cadence remainder was.
				sh.publish(slab, sched.Pending(), cfg.Duration, start)
			}
			if sink != nil && sink.Close != nil {
				if err := sink.Close(); err != nil && sinkErr == nil {
					sinkErr = err
				}
			}
			if errs[w] == nil && sinkErr != nil {
				errs[w] = fmt.Errorf("emit sink for stripe %d: %w", w, sinkErr)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	res.WallSeconds = time.Since(start).Seconds()
	reporter.Stop()
	for _, err := range errs {
		if err != nil {
			return res, fmt.Errorf("fleet: scale stripe: %w", err)
		}
	}

	t := slab.Totals(0, slab.Len())
	res.Frames = t.Sent
	res.Delivered = t.Delivered
	res.Lost = t.Lost
	res.Retransmits = t.Retransmits
	res.Switches = t.Switches
	res.MaxWindow = t.MaxWindow
	res.Ticks = ticksPerDevice * uint64(cfg.Devices)
	res.VirtualSeconds = cfg.Duration.Seconds() * float64(cfg.Devices)
	if res.WallSeconds > 0 {
		res.RealTimeFactor = res.VirtualSeconds / res.WallSeconds
		res.TicksPerSecond = float64(res.Ticks) / res.WallSeconds
	}
	return res, nil
}
