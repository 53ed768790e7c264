package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/ops"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// The ingest-tcp workload definition. The rate is part of it: CPU per
// frame depends on how many frames each read and batch carries.
const (
	// ingestRate is the offered load in frames per second, about a
	// quarter of the gateway's saturation rate on the reference box.
	ingestRate        = 500_000
	ingestDevices     = 10_000
	ingestShards      = 2
	ingestSmokeRate   = 50_000
	ingestZipfS       = 1.1
	ingestDupProb     = 0.005
	ingestReorderProb = 0.005
	ingestCorruptProb = 0.001
	// maxBatch caps the frames one write carries when the generator
	// wakes up late; it stays within the client's 64 KiB write buffer.
	maxBatch = 2048
	// ingestTick is the generator's cadence: every tick, rate×tick frames
	// fall due at once, as from a gateway forwarding in 1 ms batches.
	ingestTick = time.Millisecond
	// The scraper reads /metrics + /api/history first at scrapeFirst into
	// the run, then every scrapeEvery. With 10k sessions one /metrics body
	// is ~13 MB, so scraping every second would make the scrape, not
	// ingest, most of the CPU.
	scrapeFirst = 500 * time.Millisecond
	scrapeEvery = 5 * time.Second
	// ingestSampleEvery: the traced pass decomposes one frame in this
	// many; counts cover every frame.
	ingestSampleEvery = 128
	// historyQuery is what the scraper asks /api/history for: the last
	// minute of the gateway's own series.
	historyQuery = "/api/history?k=60&prefix=net_,hub_frames_decoded_total,hub_bad_frames_total"
)

// ingestServer is one set-up of the server side: the gateway configured
// as `distscroll-bench -serve` ships it, a history store, an ops server,
// and one client connection with every session pre-registered.
type ingestServer struct {
	reg  *telemetry.Registry
	srv  *hubnet.Server
	hist *history.Store
	ops  *ops.Server
	conn *hubnet.Conn
	// nowCalls counts the gateway's ingest stamps (one per read chunk)
	// on a traced pass.
	nowCalls atomic.Uint64
}

func startIngestServer(base time.Time, traced bool) (*ingestServer, error) {
	s := &ingestServer{reg: telemetry.New()}
	cfg := hubnet.Config{Shards: ingestShards, Registry: s.reg, Pipeline: true}
	if traced {
		cfg.Now = func() time.Duration {
			s.nowCalls.Add(1)
			return time.Since(base)
		}
	}
	var err error
	if s.srv, err = hubnet.Serve("127.0.0.1:0", cfg); err != nil {
		return nil, err
	}
	if s.hist, err = history.Start(history.Config{Registry: s.reg}); err != nil {
		s.close()
		return nil, err
	}
	if s.ops, err = ops.Serve("127.0.0.1:0", ops.Config{Registry: s.reg, History: s.hist}); err != nil {
		s.close()
		return nil, err
	}
	if s.conn, err = hubnet.Dial(s.srv.Addr().String()); err != nil {
		s.close()
		return nil, err
	}
	gw := s.srv.Gateway()
	// Warm-up: one frame per device (seq 0) registers the session, primes
	// the read path and gives every session a sequence baseline.
	var payload, frames []byte
	n := 0
	for d := uint32(1); d <= ingestDevices; d++ {
		gw.Session(d)
		payload = rf.Message{Kind: rf.MsgHeartbeat, Device: d}.AppendBinary(payload[:0])
		frames, _ = rf.AppendEncode(frames, payload) // a message is far below rf.MaxPayload
		if n++; n == maxBatch || d == ingestDevices {
			if err := s.send(frames, n); err != nil {
				s.close()
				return nil, err
			}
			frames, n = frames[:0], 0
		}
	}
	if err := s.await(ingestDevices, 10*time.Second); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *ingestServer) send(frames []byte, n int) error {
	if err := s.conn.SendEncoded(frames, n); err != nil {
		return err
	}
	return s.conn.Flush()
}

// await waits until the gateway has read n frames (good or bad) and its
// rings are empty.
func (s *ingestServer) await(n uint64, limit time.Duration) error {
	gw := s.srv.Gateway()
	deadline := time.Now().Add(limit)
	for {
		ns := gw.NetStats()
		if ns.Frames+ns.BadFrames >= n {
			gw.Drain()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway read %d of %d frames", ns.Frames+ns.BadFrames, n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// close tears the set-up down in dependency order; the gateway's shard
// workers have exited once srv.Close returns.
func (s *ingestServer) close() {
	if s.conn != nil {
		s.conn.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.hist.Stop()
	s.ops.Close()
}

// ingestPlan is the seeded frame stream. Frame ids number the frames in
// send order and ride in the AtMillis field, so a dispatched event names
// its frame; frame i is due at i/rate seconds after the start.
type ingestPlan struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  [ingestDevices + 1]uint16

	// expect is how many times each frame must be dispatched: 1, 2 for a
	// duplicated frame, 0 for a corrupted one.
	expect                        []uint8
	dups, reorders, corrupt, sent uint64
	payload                       []byte
}

func newIngestPlan(seed uint64, frames int) *ingestPlan {
	rng := rand.New(rand.NewSource(int64(seed)))
	p := &ingestPlan{rng: rng, zipf: rand.NewZipf(rng, ingestZipfS, 1, ingestDevices-1), expect: make([]uint8, 0, frames+1)}
	for d := range p.seq {
		p.seq[d] = 1 // the warm-up used seq 0
	}
	return p
}

func (p *ingestPlan) frame(dst []byte, dev uint32, seq uint16) []byte {
	id := uint32(len(p.expect))
	p.payload = rf.Message{
		Kind:      rf.MsgState,
		Device:    dev,
		Seq:       seq,
		AtMillis:  id,
		VoltageMV: uint16(400 + p.rng.Intn(2600)),
		Island:    int16(p.rng.Intn(12)),
		Index:     int16(p.rng.Intn(12)),
	}.AppendBinary(p.payload[:0])
	out, _ := rf.AppendEncode(dst, p.payload) // a message is far below rf.MaxPayload
	p.expect = append(p.expect, 1)
	p.sent++
	return out
}

// next appends the next event's frames to dst: a plain frame, a frame
// sent twice, two frames of one device sent in swapped order, or a frame
// with one payload byte flipped.
func (p *ingestPlan) next(dst []byte) []byte {
	dev := uint32(p.zipf.Uint64()) + 1
	seq := p.seq[dev]
	switch r := p.rng.Float64(); {
	case r < ingestCorruptProb:
		p.seq[dev]++
		start := len(dst)
		dst = p.frame(dst, dev, seq)
		if corruptFrame(dst[start:], p.rng) {
			p.expect[len(p.expect)-1] = 0
			p.corrupt++
		}
	case r < ingestCorruptProb+ingestDupProb:
		p.seq[dev]++
		start := len(dst)
		dst = p.frame(dst, dev, seq)
		dst = append(dst, dst[start:]...)
		p.expect[len(p.expect)-1] = 2
		p.dups++
		p.sent++
	case r < ingestCorruptProb+ingestDupProb+ingestReorderProb:
		p.seq[dev] += 2
		dst = p.frame(dst, dev, seq+1)
		dst = p.frame(dst, dev, seq)
		p.reorders++
	default:
		p.seq[dev]++
		dst = p.frame(dst, dev, seq)
	}
	return dst
}

// corruptFrame flips one payload byte so the CRC rejects the frame. It
// keeps the length byte intact and avoids leaving a sync pair in the
// frame's tail, where the decoder hunts after the CRC failure, so each
// corruption costs exactly one bad frame and never a neighbour. It
// reports false, leaving the frame intact, when no flip it tries does.
func corruptFrame(f []byte, rng *rand.Rand) bool {
	n := int(f[2])
	for try := 0; try < 64; try++ {
		i := 3 + rng.Intn(n)
		mask := byte(1) << uint(rng.Intn(8))
		f[i] ^= mask
		if !bytes.Contains(f[2:], []byte{0xAA, 0x55}) {
			return true
		}
		f[i] ^= mask
	}
	return false
}

// ingestObserver is the benchmark's Tap on every session: it records
// when each frame was dispatched. Taps run on the two shard workers; a
// device's frames all land on one shard, so per-frame and per-device
// slots have a single writer each.
type ingestObserver struct {
	base  time.Time
	batch int   // frames due per tick
	t0    int64 // due time of the first tick, ns since base

	lat        hist
	got        []uint8
	lastID     [ingestDevices + 1]int64
	outOfOrder atomic.Uint64
	// shards holds each shard worker's dispatch count and last dispatch
	// time, padded so the two workers never share a cache line.
	shards [ingestShards]struct {
		n  atomic.Uint64
		at atomic.Int64
		_  [48]byte
	}

	// Traced pass only: one frame in every `every` is decomposed. The
	// generator stamps its write start and return, the tap the ingest
	// stamp and its own time (first dispatch only), all in ns since base;
	// decompose reads them once the run is over.
	every                              uint32
	writeStart, wireEnd, hostAt, tapAt []atomic.Int64
}

// due is when frame id was due to be sent, in ns since base.
func (o *ingestObserver) due(id uint32) int64 {
	return o.t0 + int64(id)/int64(o.batch)*int64(ingestTick)
}

// dispatched is the number of frames dispatched so far.
func (o *ingestObserver) dispatched() uint64 {
	var n uint64
	for i := range o.shards {
		n += o.shards[i].n.Load()
	}
	return n
}

func (o *ingestObserver) tap(ev core.Event) {
	now := int64(time.Since(o.base))
	id := uint32(ev.DeviceTime / time.Millisecond)
	due := o.due(id)
	o.lat.observe(now - due)
	o.got[id]++
	if int64(id) < o.lastID[ev.Device] {
		o.outOfOrder.Add(1)
	}
	o.lastID[ev.Device] = int64(id)
	sh := &o.shards[ev.Device%ingestShards]
	sh.n.Add(1)
	sh.at.Store(now)
	if o.every == 0 || id%o.every != 0 {
		return
	}
	if k := id / o.every; o.tapAt[k].CompareAndSwap(0, now) {
		o.hostAt[k].Store(int64(ev.HostTime))
	}
}

// decompose splits each sampled frame's latency into generator lateness,
// client write, wire and consume, records the spans, and returns the
// wire and consume histograms. It runs after the generator and the
// gateway have finished, so every stamp is final.
func (o *ingestObserver) decompose(spans *spanRecorder) (wire, consume *hist) {
	wire, consume = &hist{}, &hist{}
	for k := range o.tapAt {
		now := o.tapAt[k].Load()
		if now == 0 {
			continue // corrupted, or past the last frame
		}
		id := uint32(k) * o.every
		due, ws, we, host := o.due(id), o.writeStart[k].Load(), o.wireEnd[k].Load(), o.hostAt[k].Load()
		wire.observe(host - we)
		consume.observe(now - host)
		root := spans.add("ingest.frame", uint64(id), -1, due, now)
		spans.add("bench.gen_late", uint64(id), root, due, ws)
		spans.add("hubnet.client.write", uint64(id), root, ws, we)
		spans.add("hubnet.wire", uint64(id), root, we, host)
		spans.add("hubnet.consume", uint64(id), root, host, now)
	}
	return wire, consume
}

// scrapes is what the ops scraper measured.
type scrapes struct {
	total, metrics, history, bytes []float64
	err                            error
}

// scrape reads /metrics and the history query over one keep-alive HTTP
// connection every scrapeEvery until stop closes.
func scrape(url string, stop <-chan struct{}) *scrapes {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	get := func(path string) (time.Duration, int64, error) {
		t0 := time.Now()
		resp, err := client.Get(url + path)
		if err != nil {
			return 0, 0, err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return time.Since(t0), n, err
	}
	s := &scrapes{}
	t := time.NewTimer(scrapeFirst)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return s
		case <-t.C:
			t.Reset(scrapeEvery)
		}
		dm, nm, err := get("/metrics")
		if err != nil {
			s.err = err
			return s
		}
		dh, nh, err := get(historyQuery)
		if err != nil {
			s.err = err
			return s
		}
		s.metrics = append(s.metrics, float64(dm)/1e6)
		s.history = append(s.history, float64(dh)/1e6)
		s.total = append(s.total, float64(dm+dh)/1e6)
		s.bytes = append(s.bytes, float64(nm+nh))
	}
}

// runIngestTCP offers a fixed frame rate over one loopback TCP connection
// for the configured time and checks that every clean frame is
// dispatched exactly as often as it was sent, in per-device order.
func runIngestTCP(c runConfig) (*pass, error) {
	rate := float64(ingestRate)
	if c.smoke {
		rate = ingestSmokeRate
	}
	frames := int(rate * c.seconds)
	p := &pass{layers: map[string]metric{}}
	heap := startHeapSampler(5 * time.Millisecond)
	defer heap.finish()
	base := time.Now()
	if c.traced {
		base = c.spans.base
	}

	// Set up five times; time each and keep the last.
	const setupRuns = 5
	var setups []float64
	var s *ingestServer
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t := time.Now()
		srv, err := startIngestServer(base, c.traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < setupRuns-1 {
			srv.close()
			continue
		}
		s = srv
	}
	defer s.close()
	gw := s.srv.Gateway()

	o := &ingestObserver{base: base, batch: int(math.Round(rate * ingestTick.Seconds())), got: make([]uint8, frames+2)}
	if c.traced {
		o.every = ingestSampleEvery
		n := frames/ingestSampleEvery + 2
		o.writeStart, o.wireEnd = make([]atomic.Int64, n), make([]atomic.Int64, n)
		o.hostAt, o.tapAt = make([]atomic.Int64, n), make([]atomic.Int64, n)
	}
	for d := uint32(1); d <= ingestDevices; d++ {
		o.lastID[d] = -1
		gw.Session(d).Tap(o.tap)
	}
	plan := newIngestPlan(c.seed, frames)
	before := gw.Stats()

	stop := make(chan struct{})
	scraped := make(chan *scrapes, 1)
	go func() { scraped <- scrape("http://"+s.ops.Addr(), stop) }()
	var depthMax atomic.Uint64
	var depthWG sync.WaitGroup
	if c.traced {
		depthWG.Add(1)
		go func() {
			defer depthWG.Done()
			t := time.NewTicker(time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				if d := gw.NetStats().RingDepth; d > depthMax.Load() {
					depthMax.Store(d)
				}
			}
		}()
	}

	// The generator: every tick a batch of rate×tick frames falls due.
	// Each wake-up encodes every frame already due (up to maxBatch) and
	// writes them with one SendEncoded + Flush.
	var late, write hist
	var encodeNs, writeNs int64
	buf := make([]byte, 0, 64<<10)
	o.t0 = int64(time.Since(base)) + int64(time.Millisecond)
	gc0, cpu0 := readGC(), readCPU()
	var genErr error
	for len(plan.expect) < frames {
		first := len(plan.expect)
		now := int64(time.Since(base))
		if at := o.due(uint32(first)); now < at {
			// A raw nanosleep wakes within ~60 us; the runtime timer
			// rounds waits under a millisecond up to one on this path.
			ts := syscall.NsecToTimespec(at - now)
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
			continue
		}
		due := (int((now-o.t0)/int64(ingestTick)) + 1) * o.batch
		if due > frames {
			due = frames
		}
		buf = buf[:0]
		for n := 0; len(plan.expect) < due && n < maxBatch; n++ {
			buf = plan.next(buf)
		}
		last := len(plan.expect)
		ws := int64(time.Since(base))
		if c.traced {
			encodeNs += ws - now
			for id := first; id < last; id++ {
				if uint32(id)%o.every == 0 {
					o.writeStart[id/ingestSampleEvery].Store(ws)
				}
			}
		}
		if genErr = s.send(buf, last-first); genErr != nil {
			break
		}
		we := int64(time.Since(base))
		write.observe(we - ws)
		writeNs += we - ws
		for id := first; id < last; id++ {
			late.observe(ws - o.due(uint32(id)))
			if c.traced && uint32(id)%o.every == 0 {
				o.wireEnd[id/ingestSampleEvery].Store(we)
			}
		}
	}
	waitErr := genErr
	if waitErr == nil {
		waitErr = s.await(uint64(ingestDevices)+plan.sent, 30*time.Second)
	}
	cpu := readCPU().sub(cpu0)
	gcd := readGC().sub(gc0)
	close(stop)
	sc := <-scraped
	depthWG.Wait()
	ns := gw.NetStats()
	after := gw.Stats()
	s.close()
	if waitErr != nil {
		return nil, waitErr
	}
	if sc.err != nil {
		return nil, fmt.Errorf("scrape: %w", sc.err)
	}

	// Checks: every clean frame dispatched as often as it was sent, in
	// per-device order; the counters match what the plan injected.
	var dispatched, missing uint64
	for id, want := range plan.expect {
		got := o.got[id]
		dispatched += uint64(got)
		if want == 0 {
			if got != 0 {
				p.fail("corrupted frame %d dispatched %d times", id, got)
			}
			continue
		}
		p.attempted++
		if got != want {
			p.failed++
			if got < want {
				missing++
			}
			if p.failed <= 5 {
				p.fail("frame %d dispatched %d times, want %d", id, got, want)
			}
		}
	}
	if n := o.outOfOrder.Load(); n > 0 {
		p.fail("%d frames dispatched out of per-device order", n)
	}
	if d := after.Duplicates - before.Duplicates; d != plan.dups {
		p.fail("session duplicates %d, generator injected %d", d, plan.dups)
	}
	if d := after.Reordered - before.Reordered; d != plan.reorders {
		p.fail("session reordered %d, generator injected %d", d, plan.reorders)
	}
	if ns.BadFrames != plan.corrupt {
		p.fail("gateway bad frames %d, generator corrupted %d", ns.BadFrames, plan.corrupt)
	}
	if ns.RingDropped != 0 {
		p.fail("gateway dropped %d ring batches", ns.RingDropped)
	}
	p.totals = fmt.Sprintf("frames=%d sent=%d dispatched=%d duplicates=%d reordered=%d corrupted=%d bad_frames=%d",
		frames, plan.sent, dispatched, plan.dups, plan.reorders, plan.corrupt, ns.BadFrames)

	var lastTap int64
	for i := range o.shards {
		if t := o.shards[i].at.Load(); t > lastTap {
			lastTap = t
		}
	}
	elapsed := float64(lastTap - o.t0)
	p.frames = float64(dispatched)
	p.fps = p.frames / (elapsed / 1e9)
	// Whole-phase CPU: the generator, the server and the scrapes.
	p.cpuNsPerFrame = float64(cpu.total()) / p.frames
	p.gc, p.cpu = gcd, cpu
	// A frame that never arrived counts as missing every limit: it sits
	// above any measured latency.
	latQ := func(q float64) float64 {
		n := float64(o.lat.count() + missing)
		if q*n >= float64(o.lat.count()) {
			return elapsed / 1e6
		}
		return o.lat.quantile(q*n/float64(o.lat.count())) / 1e6
	}
	p.e2e = map[string]metric{
		"setup_s":          {median(setups), "s"},
		"frames_per_s":     {p.fps, "1/s"},
		"cpu_ns_per_frame": {p.cpuNsPerFrame, "ns"},
		"heap_peak_mb":     {heap.finish(), "MB"},
	}
	// Latency exists only on this open loop, so it is reported with the
	// per-layer figures, taken from the pass timed with tracing off.
	p.offLayers = map[string]metric{
		"ingest-tcp.lat_p50_ms": {latQ(0.5), "ms"},
		"ingest-tcp.lat_p99_ms": {latQ(0.99), "ms"},
		"ingest-tcp.scrape_ms":  {median(sc.total), "ms"},
	}
	fmt.Fprintf(c.log, "ingest-tcp: offered %.0f frames/s for %.1f s; %d latency samples, p99.9 %.4g ms; generator late p50 %.4g ms p99 %.4g ms; %d scrapes (%.0f bytes each), scrape p90 %.4g ms\n",
		rate, c.seconds, o.lat.count(), o.lat.quantile(0.999)/1e6, late.quantile(0.5)/1e6, late.quantile(0.99)/1e6,
		len(sc.total), median(sc.bytes), quantileOf(sc.total, 0.9))
	if !c.traced {
		return p, nil
	}

	wire, consume := o.decompose(c.spans)
	p.layers["hubnet.client.write_us_p50"] = metric{write.quantile(0.5) / 1e3, "us"}
	p.layers["hubnet.client.write_us_p99"] = metric{write.quantile(0.99) / 1e3, "us"}
	p.layers["hubnet.wire_us_p50"] = metric{wire.quantile(0.5) / 1e3, "us"}
	p.layers["hubnet.wire_us_p99"] = metric{wire.quantile(0.99) / 1e3, "us"}
	p.layers["hubnet.consume_us_p50"] = metric{consume.quantile(0.5) / 1e3, "us"}
	p.layers["hubnet.consume_us_p99"] = metric{consume.quantile(0.99) / 1e3, "us"}
	p.layers["hubnet.frames_per_read"] = metric{ratio(float64(ns.Frames), float64(s.nowCalls.Load())), "count"}
	p.layers["hubnet.ring_stalls"] = metric{float64(ns.RingStalls), "count"}
	p.layers["hubnet.ring_depth_max"] = metric{float64(depthMax.Load()), "count"}
	p.layers["hubnet.ring_dropped"] = metric{float64(ns.RingDropped), "count"}
	p.layers["ops.scrape_metrics_ms"] = metric{median(sc.metrics), "ms"}
	p.layers["ops.scrape_history_ms"] = metric{median(sc.history), "ms"}
	p.layers["ops.scrape_bytes"] = metric{median(sc.bytes), "B"}
	p.layers["bench.gen_late_ms_p50"] = metric{late.quantile(0.5) / 1e6, "ms"}
	p.layers["bench.gen_late_ms_p99"] = metric{late.quantile(0.99) / 1e6, "ms"}
	// Latency reconciliation on the sampled frames: due → write start →
	// write return → ingest stamp → dispatch telescopes to the latency.
	stages := late.quantile(0.5) + write.quantile(0.5) + wire.quantile(0.5) + consume.quantile(0.5)
	p.layers["ingest-tcp.recon.lat_stage_sum_ms"] = metric{stages / 1e6, "ms"}
	p.layers["ingest-tcp.recon.lat_unattributed_ms"] = metric{(o.lat.quantile(0.5) - stages) / 1e6, "ms"}
	// CPU reconciliation: the client's encode and write per frame.
	enc, wr := float64(encodeNs)/p.frames, float64(writeNs)/p.frames
	p.attributed = enc + wr
	p.attribution = fmt.Sprintf("client encode %.1f + client write %.1f [latency p50 %.4g ms = late %.4g + write %.4g + wire %.4g + consume %.4g ms + unattributed %.4g]",
		enc, wr, o.lat.quantile(0.5)/1e6, late.quantile(0.5)/1e6, write.quantile(0.5)/1e6,
		wire.quantile(0.5)/1e6, consume.quantile(0.5)/1e6, (o.lat.quantile(0.5)-stages)/1e6)
	return p, nil
}
