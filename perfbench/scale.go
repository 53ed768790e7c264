package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/fleet"
)

// scaleSize is one scale configuration and its reference totals at the
// default seed (1), pinned from a run of the unmodified program.
type scaleSize struct {
	devices  int
	duration time.Duration // virtual time each device simulates per run
	ref      string
}

var (
	scaleFull = scaleSize{devices: 200_000, duration: 2 * time.Second,
		ref: "ticks=10000000 frames=2743820 delivered=2743820 lost=27202 switches=2743820 retransmits=27202"}
	scaleSmoke = scaleSize{devices: 20_000, duration: time.Second,
		ref: "ticks=500000 frames=137463 delivered=137463 lost=1367 switches=137463 retransmits=1367"}
)

const scaleLoss = 0.01

// runScale repeats fleet.RunScale over one slab stripe with telemetry
// off. Each repetition builds its slab (set-up) and ticks it (timed).
// The traced pass attaches an emit sink whose Flush marks every sweep.
func runScale(c runConfig) (*pass, error) {
	size := scaleFull
	if c.smoke {
		size = scaleSmoke
	}
	p := &pass{layers: map[string]metric{}}
	heap := startHeapSampler(5 * time.Millisecond)
	defer heap.finish()

	var sweeps hist
	var sweepFrames, sweepCount uint64
	var root int32 = -1
	cfg := fleet.ScaleConfig{
		Devices:  size.devices,
		Seed:     c.seed,
		Workers:  1,
		Duration: size.duration,
		LossProb: scaleLoss,
	}
	if c.traced {
		cfg.Emit = func(_, _, _ int) (*fleet.StripeSink, error) {
			var frames uint64
			prev := c.spans.now()
			return &fleet.StripeSink{
				Emit: func(int, uint16, int16, uint32) { frames++ },
				Flush: func() error {
					t := c.spans.now()
					sweeps.observe(t - prev)
					c.spans.add("core.slab.sweep", sweepCount, root, prev, t)
					sweepCount++
					sweepFrames += frames
					frames = 0
					prev = t
					return nil
				},
			}, nil
		}
	}

	var setup, fps, cpuPerFrame []float64
	var cpuSum cpuTimes
	var gcSum gcStats
	start := time.Now()
	for iter := 0; iter < 3 || time.Since(start).Seconds() < c.seconds; iter++ {
		runtime.GC()
		gc0 := readGC()
		root = c.spans.add("fleet.RunScale", uint64(iter), -1, c.spans.now(), 0)
		t0 := time.Now()
		cpu0 := readCPU()
		res, err := fleet.RunScale(cfg)
		cpu := readCPU().sub(cpu0)
		wall := time.Since(t0).Seconds()
		c.spans.end(root, c.spans.now())
		p.attempted++
		if err != nil {
			p.failed++
			p.fail("run %d: %v", iter, err)
			continue
		}
		d := readGC().sub(gc0)
		gcSum = gcSum.add(d)
		cpuSum = cpuSum.add(cpu)
		totals := fmt.Sprintf("ticks=%d frames=%d delivered=%d lost=%d switches=%d retransmits=%d",
			res.Ticks, res.Frames, res.Delivered, res.Lost, res.Switches, res.Retransmits)
		ok := true
		if want := uint64(size.devices) * uint64(size.duration/(40*time.Millisecond)); res.Ticks != want {
			p.fail("run %d: ticks %d, want %d", iter, res.Ticks, want)
			ok = false
		}
		// For any seed: the modelled reliable link delivers every frame
		// once, retransmits exactly the lost first copies, and sends one
		// frame per island switch; the loss rate stays within six
		// binomial sigmas of LossProb.
		if res.Delivered != res.Frames || res.Lost != res.Retransmits || res.Switches != res.Frames {
			p.fail("run %d: %s breaks delivered = switches = frames, lost = retransmits", iter, totals)
			ok = false
		}
		if n := float64(res.Frames); res.Frames == 0 ||
			math.Abs(float64(res.Lost)/n-scaleLoss) > 6*math.Sqrt(scaleLoss*(1-scaleLoss)/n) {
			p.fail("run %d: lost %d of %d frames, modelled loss %.3g", iter, res.Lost, res.Frames, scaleLoss)
			ok = false
		}
		if c.seed == 1 && totals != size.ref {
			p.fail("run %d: totals %q differ from the seed-1 reference %q", iter, totals, size.ref)
			ok = false
		}
		if p.totals != "" && totals != p.totals {
			p.fail("run %d: totals %q differ from run 0 %q", iter, totals, p.totals)
			ok = false
		}
		if !ok {
			p.failed++
		}
		p.totals = totals
		p.frames += float64(res.Frames)
		setup = append(setup, wall-res.WallSeconds)
		fps = append(fps, float64(res.Frames)/res.WallSeconds)
		cpuPerFrame = append(cpuPerFrame, float64(cpu.total())/float64(res.Frames))
	}
	p.gc, p.cpu = gcSum, cpuSum
	p.fps = median(fps)
	p.cpuNsPerFrame = median(cpuPerFrame)
	p.e2e = map[string]metric{
		"setup_s":          {median(setup), "s"},
		"frames_per_s":     {p.fps, "1/s"},
		"cpu_ns_per_frame": {p.cpuNsPerFrame, "ns"},
		"heap_peak_mb":     {heap.finish(), "MB"},
	}
	fmt.Fprintf(c.log, "scale: %d runs of %d devices x %v virtual; frames_per_s p10..p90 %.4g..%.4g\n",
		len(fps), size.devices, size.duration, quantileOf(fps, 0.1), quantileOf(fps, 0.9))
	if !c.traced {
		return p, nil
	}

	// Slab footprint: heap growth across one build, after collection.
	runtime.GC()
	h0 := heapInUse()
	slab, err := core.NewStateSlab(core.SlabConfig{Devices: size.devices, Seed: c.seed, LossProb: scaleLoss})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	h1 := heapInUse()
	runtime.KeepAlive(slab)

	sweepNs := sweeps.quantile(0.5)
	perSweep := float64(sweepFrames) / float64(sweepCount)
	ticksPerSweep := float64(size.devices)
	p.layers["core.slab.sweep_us_p50"] = metric{sweepNs / 1e3, "us"}
	p.layers["core.slab.sweep_us_p99"] = metric{sweeps.quantile(0.99) / 1e3, "us"}
	p.layers["core.slab.ns_per_tick"] = metric{sweepNs / ticksPerSweep, "ns"}
	p.layers["core.slab.frames_per_tick"] = metric{perSweep / ticksPerSweep, "count"}
	p.layers["core.slab.bytes_per_device"] = metric{float64(h1-h0) / float64(size.devices), "B"}
	p.attributed = sweepNs / perSweep
	p.attribution = fmt.Sprintf("core.slab sweep %.2f (p50 %.0f us / %.0f frames per sweep)", p.attributed, sweepNs/1e3, perSweep)
	return p, nil
}
