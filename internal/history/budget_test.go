package history

import (
	"testing"
	"time"
	"unsafe"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// retainedBytes sums what the store's series hold: the value and digest
// rings plus the cumulative and scratch histogram slices.
func retainedBytes(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sr := range s.series {
		n += cap(sr.vals)*int(unsafe.Sizeof(float64(0))) + cap(sr.digs)*int(unsafe.Sizeof(Digest{}))
		for _, h := range []telemetry.HistogramSnapshot{sr.prevHist, sr.delta} {
			n += cap(h.Bounds)*int(unsafe.Sizeof(float64(0))) + cap(h.Counts)*int(unsafe.Sizeof(uint64(0)))
		}
	}
	return n
}

// TestHistoryBytesIndependentOfSessions: with the per-device series
// budget, a hub with 10k sessions leaves the history store holding the
// same series, and the same bytes, as one with 1k.
func TestHistoryBytesIndependentOfSessions(t *testing.T) {
	retained := func(sessions int) (int, int) {
		reg := telemetry.New()
		hub := core.NewHubWithMetrics(false, reg)
		s, err := New(Config{Registry: reg, Interval: time.Second, Now: tickClock(time.Second)})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 3; w++ {
			for d := 1; d <= sessions; d++ {
				m := rf.Message{Kind: rf.MsgScroll, Device: uint32(d), Seq: uint16(w), AtMillis: 10}
				hub.Consume(m, 15*time.Millisecond)
			}
			s.Sample()
		}
		return len(s.SeriesNames()), retainedBytes(s)
	}
	series1k, bytes1k := retained(1000)
	series10k, bytes10k := retained(10000)
	if series1k != series10k || bytes1k != bytes10k {
		t.Fatalf("1k sessions: %d series, %d B; 10k sessions: %d series, %d B", series1k, bytes1k, series10k, bytes10k)
	}
	if series1k < telemetry.MaxDeviceSeries {
		t.Fatalf("%d series retained, want the %d per-device series among them", series1k, telemetry.MaxDeviceSeries)
	}
}
