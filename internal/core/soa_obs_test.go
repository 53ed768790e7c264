package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/telemetry"
)

// TestSlabObservedStreamsUnperturbed pins the non-perturbation contract of
// the latency model: ticking with a histogram attached must leave every
// counter identical to a plain run, because the modelled latency draws
// hash (slot, seq) instead of consuming the device RNG stream.
func TestSlabObservedStreamsUnperturbed(t *testing.T) {
	cfg := SlabConfig{Devices: 200, Seed: 5, LossProb: 0.1}
	plain, err := NewStateSlab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := NewStateSlab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lat := telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs)
	at := time.Duration(0)
	for i := 0; i < 100; i++ {
		at += 40 * time.Millisecond
		plain.TickStripe(0, plain.Len(), at, nil, nil)
		observed.TickStripe(0, observed.Len(), at, lat, nil)
	}
	pt, ot := plain.Totals(0, plain.Len()), observed.Totals(0, observed.Len())
	if pt != ot {
		t.Fatalf("observation perturbed the simulation:\nplain %+v\nobserved %+v", pt, ot)
	}
	h := lat.Snapshot()
	if h.Count != ot.Sent {
		t.Fatalf("latency observations %d, want one per sent frame (%d)", h.Count, ot.Sent)
	}
	// Every modelled latency is an exact multiple of 0.5 ms, so the sum is
	// exactly representable and twice it must be an integer.
	if twice := 2 * h.Sum; twice != float64(uint64(twice)) {
		t.Fatalf("latency sum %v is not a multiple of 0.5 ms — merge determinism broken", h.Sum)
	}
}

// TestSlabLatencyMergeGroupingIndependent pins the float-exactness that
// makes shard merging worker-count independent: observing the same frames
// grouped into different shards must produce bit-identical merged sums.
func TestSlabLatencyMergeGroupingIndependent(t *testing.T) {
	cfg := SlabConfig{Devices: 120, Seed: 9, LossProb: 0.2}
	run := func(stripes []int) telemetry.HistogramSnapshot {
		slab, err := NewStateSlab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hists := make([]*telemetry.LocalHistogram, len(stripes))
		for i := range hists {
			hists[i] = telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs)
		}
		at := time.Duration(0)
		for tick := 0; tick < 50; tick++ {
			at += 40 * time.Millisecond
			lo := 0
			for i, hi := range stripes {
				slab.TickStripe(lo, hi, at, hists[i], nil)
				lo = hi
			}
		}
		var merged telemetry.HistogramSnapshot
		s := telemetry.NewSnapshot()
		for _, h := range hists {
			s.MergeHistogram("lat", h.Snapshot())
		}
		merged, _ = s.Histogram("lat")
		return merged
	}
	one := run([]int{120})
	four := run([]int{30, 60, 90, 120})
	if one.Sum != four.Sum || one.Count != four.Count {
		t.Fatalf("merged histogram depends on stripe grouping:\n1 stripe  sum=%v count=%d\n4 stripes sum=%v count=%d",
			one.Sum, one.Count, four.Sum, four.Count)
	}
}

// TestSlabTotalsContribute pins the canonical-name mapping that makes a
// scale run comparable with a session run in one scrape.
func TestSlabTotalsContribute(t *testing.T) {
	tot := SlabTotals{Sent: 100, Delivered: 100, Lost: 7, Retransmits: 7, Switches: 100, Outstanding: 3}
	s := telemetry.NewSnapshot()
	tot.Contribute(s)
	want := map[string]uint64{
		telemetry.MetricFwScrollEvents:   100,
		telemetry.MetricFwFramesSent:     100,
		telemetry.MetricFwIslandSwitches: 100,
		telemetry.MetricRFSent:           107, // first copies + retransmits
		telemetry.MetricRFLost:           7,
		telemetry.MetricRFDelivered:      100,
		telemetry.MetricARQEnqueued:      100,
		telemetry.MetricARQAcked:         100,
		telemetry.MetricARQRetransmits:   7,
		telemetry.MetricHubDecoded:       100,
		telemetry.MetricHubEvents:        100,
	}
	for name, v := range want {
		if got := s.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if len(s.Counters) != len(want) {
		t.Errorf("Contribute wrote %d counters, want %d", len(s.Counters), len(want))
	}
}

// TestSlabConfigValidation pins the slab's rejection of configurations the
// session path rejects too: no devices, or a loss probability outside [0,1];
// and more entries than its int16 island index can hold.
func TestSlabConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		cfg  SlabConfig
		want string // empty: accepted
	}{
		{SlabConfig{Devices: 0}, "at least 1 device"},
		{SlabConfig{Devices: 8, LossProb: -0.1}, "probabilities must be in [0,1]"},
		{SlabConfig{Devices: 8, LossProb: 1.5}, "probabilities must be in [0,1]"},
		{SlabConfig{Devices: 8, LossProb: 0}, ""},
		{SlabConfig{Devices: 8, LossProb: 1}, ""},
		{SlabConfig{Devices: 8, Entries: math.MaxInt16}, ""},
		{SlabConfig{Devices: 8, Entries: math.MaxInt16 + 1}, "at most 32767 entries"},
	} {
		_, err := NewStateSlab(tc.cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v rejected: %v", tc.cfg, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v: error %v does not mention %q", tc.cfg, err, tc.want)
		}
	}
}
