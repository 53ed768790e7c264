package hubnet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/ops"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// TestServedGatewayOneClock serves real loopback TCP with an injected
// ingest clock whose stamps alternate between 1 ms and 10 s, so they
// fall both before and after the frames' device times (0-7.96 s).
// Subtracting device time from such a stamp is no latency, so the served
// sessions must record no hub_e2e_latency_ms at all and /api/device must
// show no latency block; the pipelined gateway instead records
// net_ring_wait_ms, stamp and consume both on the injected clock, once
// for every consumed frame and never negative.
func TestServedGatewayOneClock(t *testing.T) {
	const rounds = 200
	devs := []uint32{1, 2, 3, 4, 5}
	for _, pipelined := range []bool{true, false} {
		t.Run(fmt.Sprintf("pipeline=%v", pipelined), func(t *testing.T) {
			reg := telemetry.New()
			var calls atomic.Uint64
			now := func() time.Duration {
				if calls.Add(1)%2 == 0 {
					return 10 * time.Second
				}
				return time.Millisecond
			}
			srv, err := Serve("127.0.0.1:0", Config{
				Shards: 2, Registry: reg, Pipeline: pipelined, BatchFrames: 16, Now: now,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			gw := srv.Gateway()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			wire := stream(t, devs, rounds)
			// A scraper runs throughout, so -race sees the collector read
			// the workers' ring-wait histograms while they write them.
			stop, scraped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(scraped)
				for {
					select {
					case <-stop:
						return
					default:
						reg.Snapshot()
					}
				}
			}()
			// Small sends, each read by the server before the next goes
			// out, so every chunk gets its own ingest stamp.
			deadline := time.Now().Add(10 * time.Second)
			for off := 0; off < len(wire); off += 600 {
				end := min(off+600, len(wire))
				if err := c.SendEncoded(wire[off:end], 0); err != nil {
					t.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				for gw.NetStats().BytesRead < uint64(end) && time.Now().Before(deadline) {
					time.Sleep(100 * time.Microsecond)
				}
			}
			total := uint64(len(devs) * rounds)
			for gw.NetStats().Frames < total && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			close(stop)
			<-scraped
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if st := gw.Stats(); st.Decoded != total || st.BadFrames != 0 {
				t.Fatalf("gateway stats %+v, want %d decoded", st, total)
			}
			if n := calls.Load(); n < uint64(len(wire)/600) {
				t.Fatalf("ingest clock read %d times for %d chunks", n, len(wire)/600+1)
			}

			snap := reg.Snapshot()
			if h, ok := snap.Histogram(telemetry.MetricHubE2ELatency); ok {
				t.Fatalf("served gateway recorded %s: count %d, sum %v ms", telemetry.MetricHubE2ELatency, h.Count, h.Sum)
			}
			api := ops.Handler(ops.Config{Registry: reg, Lookup: gw.Lookup})
			for _, dev := range devs {
				s, ok := gw.Lookup(dev)
				if !ok {
					t.Fatalf("device %d has no session", dev)
				}
				if _, ok := s.Latency(); ok {
					t.Fatalf("served device %d has a latency histogram", dev)
				}
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/device?id=%d", dev), nil))
				var body map[string]json.RawMessage
				if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusOK || err != nil {
					t.Fatalf("/api/device?id=%d: status %d, %v: %s", dev, rec.Code, err, rec.Body)
				}
				if _, ok := body["latency"]; ok {
					t.Fatalf("/api/device?id=%d shows a latency block for a served device: %s", dev, rec.Body)
				}
			}

			wait, ok := snap.Histogram(telemetry.MetricNetRingWait)
			if !pipelined {
				if ok {
					t.Fatalf("direct gateway recorded %s: %+v", telemetry.MetricNetRingWait, wait)
				}
				return
			}
			if !ok || wait.Count != total {
				t.Fatalf("%s counts %d frames (ok=%v), want every consumed frame, %d", telemetry.MetricNetRingWait, wait.Count, ok, total)
			}
			if wait.Sum < 0 || wait.Quantile(0) < 0 {
				t.Fatalf("%s has a negative value: sum %v ms", telemetry.MetricNetRingWait, wait.Sum)
			}
		})
	}
}

// TestRingWaitZeroAlloc pins the served worker's per-batch ring-wait
// observation at 0 allocs across the whole pipelined path (decode, ring
// hand-off, clock read, ObserveN, consume), and its accounting: one
// count per consumed frame, and a stamp later than the worker's clock
// reading records a wait of 0, not a negative one.
func TestRingWaitZeroAlloc(t *testing.T) {
	reg := telemetry.New()
	var clock atomic.Int64
	now := func() time.Duration { return time.Duration(clock.Add(int64(time.Microsecond))) }
	gw := newGateway(Config{Shards: 2, Registry: reg, Pipeline: true}, now)
	defer gw.Close()
	in := gw.NewIngest(now)
	wire := stream(t, []uint32{1, 2, 3, 4}, 16)
	for i := 0; i < 8; i++ {
		in.Feed(wire)
	}
	gw.Drain()
	if n := testing.AllocsPerRun(500, func() {
		in.Feed(wire)
		gw.Drain()
	}); n != 0 {
		t.Fatalf("served pipelined ingest with ring wait: %v allocs/op, want 0", n)
	}
	gw.Drain()
	snap := reg.Snapshot()
	wait, ok := snap.Histogram(telemetry.MetricNetRingWait)
	if decoded := gw.Stats().Decoded; !ok || wait.Count != decoded || wait.Sum <= 0 {
		t.Fatalf("%s count %d sum %v (ok=%v), want %d frames with a positive sum", telemetry.MetricNetRingWait, wait.Count, wait.Sum, ok, decoded)
	}

	ws := &shardWorker{wait: telemetry.NewLocalHistogram(telemetry.RingWaitBucketsMs)}
	ws.observeWait(-5*time.Millisecond, 3)
	if got := ws.wait.Snapshot(); got.Count != 3 || got.Sum != 0 || got.Counts[0] != 3 {
		t.Fatalf("a negative wait recorded %+v, want 3 observations of 0", got)
	}
}
