package telemetry

import "testing"

// TestAddDeviceLatencyBudget pins the budget's bookkeeping: a repeated
// device id merges into its series without spending budget, past
// MaxDeviceSeries new ids are refused but still reach the aggregate, and a
// snapshot that was never offered a device carries no refused gauge.
func TestAddDeviceLatencyBudget(t *testing.T) {
	h := NewLocalHistogram(LatencyBucketsMs)
	h.Observe(3)
	h.Observe(30)

	r := New()
	r.RegisterCollector(func(s *Snapshot) {
		s.AddDeviceLatency(0, h) // two hosts on device 0 share one series
		s.AddDeviceLatency(0, h)
		for d := uint32(1); d <= MaxDeviceSeries+2; d++ {
			s.AddDeviceLatency(d, h)
		}
		s.AddDeviceLatency(99, nil) // uninstrumented: neither series nor refusal
	})
	snap := r.Snapshot()
	if d0, ok := snap.Histogram(DeviceLatencyName(0)); !ok || d0.Count != 4 {
		t.Fatalf("device 0 series: %+v (ok=%v), want both hosts' 4 observations", d0, ok)
	}
	if _, ok := snap.Histogram(DeviceLatencyName(MaxDeviceSeries - 1)); !ok {
		t.Fatalf("device %d (the last within budget) has no series", MaxDeviceSeries-1)
	}
	if _, ok := snap.Histogram(DeviceLatencyName(MaxDeviceSeries)); ok {
		t.Fatalf("device %d (past the budget) has a series", MaxDeviceSeries)
	}
	if got := snap.Gauges[MetricDeviceSeriesRefused]; got != 3 {
		t.Fatalf("refused gauge %v, want 3", got)
	}
	agg, _ := snap.Histogram(MetricHubE2ELatency)
	if want := uint64(2 * (MaxDeviceSeries + 4)); agg.Count != want || agg.Sum != float64(want/2)*33 {
		t.Fatalf("aggregate count %d sum %v, want %d / %v", agg.Count, agg.Sum, want, float64(want/2)*33)
	}
	if agg.P99 == 0 {
		t.Fatal("aggregate quantiles not finalized")
	}

	if _, ok := New().Snapshot().Gauges[MetricDeviceSeriesRefused]; ok {
		t.Fatal("refused gauge published by a snapshot with no device series")
	}
}
