package telemetry

import (
	"math/rand"
	"testing"
)

// These pin HistogramSnapshot.Quantile's edge behavior — the watchdog's
// latency-p99 rule and the history store's window digests both lean on
// it, so the edges are contract, not incidental.

func quantHist(bounds []float64, counts []uint64) HistogramSnapshot {
	var total uint64
	for _, c := range counts {
		total += c
	}
	return HistogramSnapshot{Bounds: bounds, Counts: counts, Count: total}
}

func TestQuantileEmpty(t *testing.T) {
	var h HistogramSnapshot
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}
	// Bounds without observations is still empty.
	h = quantHist([]float64{1, 2}, []uint64{0, 0, 0})
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("zero-count Quantile = %g, want 0", got)
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	// One observation in the (2, 5] bucket.
	h := quantHist([]float64{1, 2, 5, 10}, []uint64{0, 0, 1, 0, 0})
	if got := h.Quantile(0); got != 2 {
		t.Fatalf("q=0 = %g, want the bucket's lower bound 2", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Fatalf("q=1 = %g, want the bucket's upper bound 5", got)
	}
	if got := h.Quantile(0.5); got != 3.5 {
		t.Fatalf("q=0.5 = %g, want the bucket midpoint 3.5", got)
	}
}

func TestQuantileAllMassInOverflow(t *testing.T) {
	// Every observation beyond the last bound: all quantiles clamp to the
	// last bound — there is no upper edge to interpolate towards.
	h := quantHist([]float64{1, 2, 5}, []uint64{0, 0, 0, 42})
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 5 {
			t.Fatalf("overflow-only Quantile(%g) = %g, want 5", q, got)
		}
	}
}

func TestQuantileClampsQ(t *testing.T) {
	h := quantHist([]float64{10, 20}, []uint64{4, 4, 0})
	if got, want := h.Quantile(-3), h.Quantile(0); got != want {
		t.Fatalf("q<0 = %g, want clamp to q=0 (%g)", got, want)
	}
	if got, want := h.Quantile(7), h.Quantile(1); got != want {
		t.Fatalf("q>1 = %g, want clamp to q=1 (%g)", got, want)
	}
}

func TestQuantileLinearInterpolation(t *testing.T) {
	// Uniform 10/10/10 across (0,10], (10,20], (20,30]: the median ranks
	// halfway into the middle bucket.
	h := quantHist([]float64{10, 20, 30}, []uint64{10, 10, 10, 0})
	if got := h.Quantile(0.5); got != 15 {
		t.Fatalf("uniform median = %g, want 15", got)
	}
	if got := h.Quantile(1.0 / 3.0); got != 10 {
		t.Fatalf("q=1/3 = %g, want the first bound 10", got)
	}
	if got := h.Quantile(1); got != 30 {
		t.Fatalf("q=1 = %g, want 30", got)
	}
}

// TestQuantileMonotoneProperty is the property satellite: over randomized
// histograms, quantiles never decrease as q increases, and every value
// stays within [0, last bound].
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nb := 1 + rng.Intn(12)
		bounds := make([]float64, nb)
		v := 0.0
		for i := range bounds {
			v += 0.5 + rng.Float64()*20
			bounds[i] = v
		}
		counts := make([]uint64, nb+1)
		for i := range counts {
			if rng.Intn(3) > 0 {
				counts[i] = uint64(rng.Intn(50))
			}
		}
		h := quantHist(bounds, counts)
		if h.Count == 0 {
			continue
		}
		prev := -1.0
		for qi := 0; qi <= 100; qi++ {
			q := float64(qi) / 100
			got := h.Quantile(q)
			if got < prev {
				t.Fatalf("trial %d: Quantile(%g) = %g < Quantile(%g) = %g\nbounds=%v counts=%v",
					trial, q, got, float64(qi-1)/100, prev, bounds, counts)
			}
			if got < 0 || got > bounds[nb-1] {
				t.Fatalf("trial %d: Quantile(%g) = %g out of [0, %g]\nbounds=%v counts=%v",
					trial, q, got, bounds[nb-1], bounds, counts)
			}
			prev = got
		}
	}
}
