package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/fleet"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/smartits"
)

const (
	fleetDevices      = 2000
	fleetSmokeDevices = 200
	// fleetSampleEvery: the traced pass times and records spans for one
	// device in this many; counts cover every call.
	fleetSampleEvery = 8
)

// fleetCore is the device template: the default prototype on a hostile
// channel — 5% independent loss, shadowing bursts and a lossy ack
// back-channel.
func fleetCore() core.Config {
	c := core.DefaultConfig()
	c.Link.LossProb = 0.05
	c.Link.BurstLossProb = 0.01
	c.Link.BurstLossLen = 5
	c.Link.AckLossProb = 0.05
	return c
}

// fleetTrace is the traced pass's view of the two seams the fleet
// exposes: the device→host transport (core.Config.Transport) and the host
// hub (fleet.Config.Hub). Every call is counted; calls of one device in
// every `every` are timed and recorded as spans under a per-device root.
// The fleet runs one worker, so every field is touched by one goroutine.
type fleetTrace struct {
	spans *spanRecorder
	every uint32

	send, handle            hist
	sends, handles          uint64
	timedSends, timedHandle uint64

	cur    uint32
	root   int32
	inputs stageInputs
}

// enter opens the root span of device id on its first seam call.
func (t *fleetTrace) enter(id uint32, start int64) {
	if id == t.cur {
		return
	}
	t.cur = id
	t.root = t.spans.add("fleet.device", uint64(id), -1, start, start)
}

func (t *fleetTrace) sampled(id uint32) bool { return id%t.every == 0 }

// timedLink wraps one device's rf.Link, forwarding every method the
// device and the fleet runner use.
type timedLink struct {
	link  *rf.Link
	t     *fleetTrace
	id    uint32
	board *smartits.Board
}

func (l *timedLink) Send(payload []byte) (time.Duration, error) {
	return l.SendTagged(payload, rf.VersionOf(payload))
}

func (l *timedLink) SendTagged(payload []byte, ver rf.PayloadVersion) (time.Duration, error) {
	l.t.sends++
	if !l.t.sampled(l.id) {
		return l.link.SendTagged(payload, ver)
	}
	if in := &l.t.inputs; len(in.payloads) < cap(in.payloads) {
		in.payloads = append(in.payloads, append([]byte(nil), payload...))
		in.distances = append(in.distances, l.board.Distance())
	}
	start := l.t.spans.now()
	at, err := l.link.SendTagged(payload, ver)
	end := l.t.spans.now()
	l.t.enter(l.id, start)
	l.t.timedSends++
	l.t.send.observe(end - start)
	l.t.spans.add("rf.transport.send", uint64(l.id), l.t.root, start, end)
	l.t.spans.end(l.t.root, end)
	return at, err
}

func (l *timedLink) Stats() rf.LinkStats { return l.link.Stats() }

// timedHub wraps the in-process hub the fleet delivers into.
type timedHub struct {
	*core.Hub
	t *fleetTrace
}

func (h timedHub) Handle(payload []byte, at time.Duration) {
	h.t.handles++
	id := rf.PayloadDevice(payload)
	if !h.t.sampled(id) {
		h.Hub.Handle(payload, at)
		return
	}
	start := h.t.spans.now()
	h.Hub.Handle(payload, at)
	end := h.t.spans.now()
	h.t.enter(id, start)
	h.t.timedHandle++
	h.t.handle.observe(end - start)
	h.t.spans.add("core.hub.handle", uint64(id), h.t.root, start, end)
	h.t.spans.end(h.t.root, end)
}

// runFleetARQ repeats fleet.New (set-up) and Runner.RunAll (timed) over
// full device graphs with reliable delivery, one worker, and the default
// in-process hub; the traced pass wraps the transport and the hub.
func runFleetARQ(c runConfig) (*pass, error) {
	devices := fleetDevices
	if c.smoke {
		devices = fleetSmokeDevices
	}
	p := &pass{layers: map[string]metric{}}
	heap := startHeapSampler(5 * time.Millisecond)
	defer heap.finish()
	tr := &fleetTrace{spans: c.spans, every: fleetSampleEvery}
	tr.inputs = stageInputs{payloads: make([][]byte, 0, 4096), distances: make([]float64, 0, 4096)}

	var setup, fps, cpuPerFrame []float64
	var runWall float64
	var cpuSum cpuTimes
	var gcSum gcStats
	var cycles, adcReads, linkSends, deliveries, enqueued, retx uint64
	start := time.Now()
	for iter := 0; iter < 3 || time.Since(start).Seconds() < c.seconds; iter++ {
		runtime.GC()
		cfg := fleet.Config{Devices: devices, Seed: c.seed, Core: fleetCore(), Workers: 1, Reliable: true}
		var links []*timedLink
		if c.traced {
			linkCfg := cfg.Core.Link
			cfg.Core.Transport = func(sched sim.EventScheduler, rng *sim.Rand, sink func([]byte, time.Duration)) (rf.Transport, error) {
				l, err := rf.NewLink(linkCfg, sched, rng, sink)
				if err != nil {
					return nil, err
				}
				tl := &timedLink{link: l, t: tr, id: uint32(len(links) + 1)}
				links = append(links, tl)
				return tl, nil
			}
			cfg.Hub = timedHub{Hub: core.NewHub(true), t: tr}
		}
		t0 := time.Now()
		r, err := fleet.New(cfg)
		if err != nil {
			return nil, err
		}
		for i, l := range links {
			l.board = r.Device(i).Board
		}
		t1 := time.Now()
		gc0 := readGC()
		cpu0 := readCPU()
		results, runErr := r.RunAll()
		cpu := readCPU().sub(cpu0)
		wall := time.Since(t1).Seconds()
		d := readGC().sub(gc0)
		gcSum = gcSum.add(d)
		cpuSum = cpuSum.add(cpu)
		p.attempted++

		bad := checkFleet(p, iter, r, results, runErr)
		tot := r.Total(results)
		totals := fmt.Sprintf("sent=%d delivered=%d lost=%d corrupted=%d decoded=%d events=%d retransmits=%d timeouts=%d queue_drops=%d acks_sent=%d acks_lost=%d stale=%d resyncs=%d missed_seq=%d",
			tot.Sent, tot.Delivered, tot.Lost, tot.Corrupted, tot.Decoded, tot.Events, tot.Retransmits,
			tot.Timeouts, tot.QueueDrops, tot.AcksSent, tot.AcksLost, tot.Stale, tot.Resyncs, tot.MissedSeq)
		if p.totals != "" && totals != p.totals {
			p.fail("run %d: totals %q differ from run 0 %q", iter, totals, p.totals)
			bad = true
		}
		if bad {
			p.failed++
		}
		p.totals = totals
		frames := float64(tot.Decoded)
		p.frames += frames
		runWall += wall
		setup = append(setup, t1.Sub(t0).Seconds())
		fps = append(fps, frames/wall)
		cpuPerFrame = append(cpuPerFrame, float64(cpu.total())/frames)
		for i, res := range results {
			fw := r.Device(i).Firmware.Stats()
			cycles += fw.Cycles
			adcReads += fw.ADCReads
			linkSends += res.Link.Sent
			deliveries += res.Link.Delivered + res.Link.Corrupted
			enqueued += res.ARQ.Enqueued
			retx += res.ARQ.Retransmits
		}
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
	fmt.Fprintf(c.log, "fleet-arq: %d runs of %d devices; frames_per_s p10..p90 %.4g..%.4g; cpu_ns_per_frame p10..p90 %.4g..%.4g\n",
		len(fps), devices, quantileOf(fps, 0.1), quantileOf(fps, 0.9), quantileOf(cpuPerFrame, 0.1), quantileOf(cpuPerFrame, 0.9))
	if !c.traced {
		return p, nil
	}

	// Seam shares: the timed calls stand for all calls in proportion.
	sendTotal := tr.send.sum() * ratio(float64(tr.sends), float64(tr.timedSends))
	handleTotal := tr.handle.sum() * ratio(float64(tr.handles), float64(tr.timedHandle))
	wallNs := runWall * 1e9
	p.layers["rf.transport.send_ns_p50"] = metric{tr.send.quantile(0.5), "ns"}
	p.layers["rf.transport.send_ns_p99"] = metric{tr.send.quantile(0.99), "ns"}
	p.layers["rf.transport.share_pct"] = metric{100 * sendTotal / wallNs, "%"}
	p.layers["core.hub.handle_ns_p50"] = metric{tr.handle.quantile(0.5), "ns"}
	p.layers["core.hub.handle_ns_p99"] = metric{tr.handle.quantile(0.99), "ns"}
	p.layers["core.hub.share_pct"] = metric{100 * handleTotal / wallNs, "%"}
	p.layers["rf.arq.retx_ratio"] = metric{ratio(float64(retx), float64(enqueued)), "ratio"}
	p.layers["fleet.other_ns_per_frame"] = metric{(wallNs - sendTotal - handleTotal) / p.frames, "ns"}

	st, err := timeStages(tr.inputs, c.seed)
	if err != nil {
		return nil, err
	}
	for _, s := range st {
		p.layers[s.name] = metric{s.ns, "ns"}
	}
	// Each stage median weighted by its calls per decoded frame. The
	// mapper runs once per firmware cycle while the signal is in range,
	// so cycles bound its calls from above.
	per := func(n uint64) float64 { return float64(n) / p.frames }
	weights := map[string]float64{
		"gp2d120.sample_ns":  per(adcReads),
		"adc.read_ns":        per(adcReads),
		"firmware.filter_ns": per(cycles),
		"mapping.lookup_ns":  per(cycles),
		"rf.encode_ns":       per(linkSends),
		"rf.decode_ns":       per(deliveries),
	}
	parts := make([]string, len(st))
	for i, s := range st {
		w := weights[s.name]
		p.attributed += s.ns * w
		parts[i] = fmt.Sprintf("%s %.1f x %.2f", s.name, s.ns, w)
	}
	p.attribution = fmt.Sprintf("stages %.1f (%s) [seams: transport %.1f%%, hub %.1f%% of RunAll wall]",
		p.attributed, strings.Join(parts, " + "),
		p.layers["rf.transport.share_pct"].Value, p.layers["core.hub.share_pct"].Value)
	return p, nil
}

// checkFleet applies the per-device output checks of one run and reports
// whether any failed.
func checkFleet(p *pass, iter int, r *fleet.Runner, results []fleet.Result, runErr error) bool {
	bad := false
	if runErr != nil {
		p.fail("run %d: %v", iter, runErr)
		bad = true
	}
	for i, res := range results {
		dev := r.Device(i)
		switch s := res.Link; {
		case res.Err != nil:
			p.fail("run %d device %d: %v", iter, res.Device, res.Err)
		case s.Sent != s.Delivered+s.Lost+s.Corrupted:
			p.fail("run %d device %d: sent %d != delivered %d + lost %d + corrupted %d",
				iter, res.Device, s.Sent, s.Delivered, s.Lost, s.Corrupted)
		case dev.ARQ.Outstanding() != 0:
			p.fail("run %d device %d: %d frames still outstanding after drain", iter, res.Device, dev.ARQ.Outstanding())
		case r.Session(i).AwaitSeq() != uint16(res.ARQ.Enqueued):
			p.fail("run %d device %d: session awaits seq %d, sender used %d", iter, res.Device,
				r.Session(i).AwaitSeq(), uint16(res.ARQ.Enqueued))
		case res.Host.MissedSeq != res.ARQ.QueueDrops+res.ARQ.RetryDrops:
			p.fail("run %d device %d: %d sequence gaps, %d frames abandoned with notice", iter, res.Device,
				res.Host.MissedSeq, res.ARQ.QueueDrops+res.ARQ.RetryDrops)
		case res.Host.Events == 0:
			p.fail("run %d device %d: no events reached the host", iter, res.Device)
		default:
			continue
		}
		bad = true
	}
	return bad
}
