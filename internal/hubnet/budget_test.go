package hubnet

import (
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// TestDeviceSeriesBudget: past MaxDeviceSeries sessions a snapshot keeps
// exactly MaxDeviceSeries per-device latency series, reports the rest on
// the refused gauge, and still folds every session into the aggregate. The
// budget is the snapshot's, so a gateway's shards share one cap.
func TestDeviceSeriesBudget(t *testing.T) {
	const (
		sessions = telemetry.MaxDeviceSeries + 10
		frames   = 3 // per device, so the aggregate differs from the session count
	)
	type backend interface {
		Consume(rf.Message, time.Duration)
		Lookup(uint32) (*core.Session, bool)
	}
	for _, tc := range []struct {
		name string
		hub  func(*telemetry.Registry) backend
	}{
		{"hub", func(reg *telemetry.Registry) backend { return core.NewHubWithMetrics(false, reg) }},
		{"gateway-2-shards", func(reg *telemetry.Registry) backend {
			return NewGateway(Config{Shards: 2, Registry: reg})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			hub := tc.hub(reg)
			for d := uint32(1); d <= sessions; d++ {
				for seq := uint16(0); seq < frames; seq++ {
					m := rf.Message{Kind: rf.MsgScroll, Device: d, Seq: seq, AtMillis: 10}
					hub.Consume(m, time.Duration(10+d%7+uint32(seq)*20)*time.Millisecond)
				}
			}
			snap := reg.Snapshot()

			perDevice := 0
			want := telemetry.HistogramSnapshot{}
			for d := uint32(1); d <= sessions; d++ {
				s, ok := hub.Lookup(d)
				if !ok {
					t.Fatalf("device %d has no session", d)
				}
				own, _ := s.Latency()
				if h, ok := snap.Histogram(telemetry.DeviceLatencyName(d)); ok {
					perDevice++
					if h.Count != own.Count || h.Sum != own.Sum {
						t.Fatalf("device %d series count %d sum %v, session has %d / %v", d, h.Count, h.Sum, own.Count, own.Sum)
					}
				}
				if want.Counts == nil {
					want.Counts = make([]uint64, len(own.Counts))
				}
				for i, c := range own.Counts {
					want.Counts[i] += c
				}
				want.Count += own.Count
				want.Sum += own.Sum
			}
			if perDevice != telemetry.MaxDeviceSeries {
				t.Fatalf("%d per-device series, want %d", perDevice, telemetry.MaxDeviceSeries)
			}
			if got := snap.Gauges[telemetry.MetricDeviceSeriesRefused]; got != sessions-telemetry.MaxDeviceSeries {
				t.Fatalf("refused gauge %v, want %d", got, sessions-telemetry.MaxDeviceSeries)
			}
			agg, ok := snap.Histogram(telemetry.MetricHubE2ELatency)
			if !ok || agg.Count != sessions*frames || agg.Count != want.Count || agg.Sum != want.Sum {
				t.Fatalf("aggregate count %d sum %v (ok=%v), want %d / %v over all %d sessions",
					agg.Count, agg.Sum, ok, want.Count, want.Sum, sessions)
			}
			for i, c := range want.Counts {
				if agg.Counts[i] != c {
					t.Fatalf("aggregate bucket %d = %d, sessions sum to %d", i, agg.Counts[i], c)
				}
			}
		})
	}
}
