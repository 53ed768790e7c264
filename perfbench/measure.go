package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hist is a log-linear histogram of non-negative nanosecond values with
// 128 sub-buckets per power of two (bucket width under 0.8% of its
// value). Observe is lock-free and allocation-free, so any number of
// goroutines may record into one hist.
type hist struct {
	counts [64 * subBuckets]atomic.Uint64
	n      atomic.Uint64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
)

func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - (subBits + 1) // v >> e is in [subBuckets, 2*subBuckets)
	return (e+1)*subBuckets + int(v>>uint(e)) - subBuckets
}

// bucketRange is the value interval [lo, hi) bucket i covers.
func bucketRange(i int) (lo, hi float64) {
	if i < subBuckets {
		return float64(i), float64(i + 1)
	}
	e := i/subBuckets - 1
	m := uint64(i%subBuckets + subBuckets)
	return float64(m << uint(e)), float64((m + 1) << uint(e))
}

func (h *hist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))].Add(1)
	h.n.Add(1)
}

func (h *hist) count() uint64 { return h.n.Load() }

// quantile returns the q-quantile in nanoseconds, interpolated linearly by
// rank inside its bucket so the result carries every digit it measured.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c > rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)*(rank-cum+0.5)/c
		}
		cum += c
	}
	lo, _ := bucketRange(len(h.counts) - 1)
	return lo
}

// sum estimates the total of all observations from bucket midpoints.
func (h *hist) sum() float64 {
	var s float64
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			lo, hi := bucketRange(i)
			s += float64(c) * (lo + hi) / 2
		}
	}
	return s
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantileOf returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

// cpuTimes is the process CPU time from getrusage.
type cpuTimes struct{ user, sys time.Duration }

func readCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }
func (c cpuTimes) add(o cpuTimes) cpuTimes { return cpuTimes{c.user + o.user, c.sys + o.sys} }
func (c cpuTimes) total() time.Duration    { return c.user + c.sys }

// heapSampler tracks the peak Go heap in use (bytes occupied by heap
// objects, live or not yet swept) by polling runtime/metrics, which does
// not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
	once sync.Once
	mb   float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the poller and returns the peak in MB. Later calls return
// the same figure, so callers may also defer it on their error paths.
func (h *heapSampler) finish() float64 {
	h.once.Do(func() {
		close(h.stop)
		h.mb = float64(<-h.done) / (1 << 20)
	})
	return h.mb
}

// heapInUse is the current heap object bytes.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// gcStats is the slice of runtime.MemStats a layer report needs.
type gcStats struct {
	cycles     uint32
	pauseTotal time.Duration
	allocBytes uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{cycles: ms.NumGC, pauseTotal: time.Duration(ms.PauseTotalNs), allocBytes: ms.TotalAlloc}
}

func (g gcStats) sub(o gcStats) gcStats {
	return gcStats{g.cycles - o.cycles, g.pauseTotal - o.pauseTotal, g.allocBytes - o.allocBytes}
}

func (g gcStats) add(o gcStats) gcStats {
	return gcStats{g.cycles + o.cycles, g.pauseTotal + o.pauseTotal, g.allocBytes + o.allocBytes}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
