package mapping

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/hcilab/distscroll/internal/gp2d120"
)

func characteristic() Characteristic {
	s := gp2d120.Default(nil)
	return s.Ideal
}

func newMapper(t *testing.T, entries int) *Mapper {
	t.Helper()
	m, err := New(DefaultConfig(entries), characteristic())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIslandsDisjointAndGapped(t *testing.T) {
	for _, n := range []int{2, 5, 10, 20, 40} {
		m := newMapper(t, n)
		islands := m.Islands()
		if len(islands) != n {
			t.Fatalf("n=%d: %d islands", n, len(islands))
		}
		for i := 1; i < len(islands); i++ {
			// Sorted ascending by voltage with a strict gap between
			// consecutive islands ("these islands do not cover the
			// complete spectrum").
			if islands[i].Lo <= islands[i-1].Hi {
				t.Fatalf("n=%d: islands %d and %d overlap or touch: [%f,%f] [%f,%f]",
					n, i-1, i, islands[i-1].Lo, islands[i-1].Hi, islands[i].Lo, islands[i].Hi)
			}
		}
	}
}

func TestIslandCentresEquallySpacedInDistance(t *testing.T) {
	// "we provide the user with the perception that the entries are
	// equally spaced on the complete scrollable distance".
	m := newMapper(t, 10)
	islands := m.Islands()
	var dists []float64
	for _, is := range islands {
		dists = append(dists, is.DistanceCm)
	}
	step := (30.0 - 4.0) / 9
	for i := 1; i < len(dists); i++ {
		gap := math.Abs(dists[i] - dists[i-1])
		if math.Abs(gap-step) > 1e-9 {
			t.Fatalf("distance spacing %f, want %f", gap, step)
		}
	}
}

func TestVoltageSpacingIsNonLinear(t *testing.T) {
	// The whole point of the island construction: equal distance spacing
	// means *unequal* voltage spacing (dense far, wide near).
	m := newMapper(t, 10)
	islands := m.Islands() // ascending voltage = descending distance
	first := islands[1].Center - islands[0].Center
	last := islands[len(islands)-1].Center - islands[len(islands)-2].Center
	if last < 2*first {
		t.Fatalf("voltage spacing should grow towards near range: far=%f near=%f", first, last)
	}
}

func TestDirectionMapping(t *testing.T) {
	down, err := New(DefaultConfig(5), characteristic())
	if err != nil {
		t.Fatal(err)
	}
	cfgUp := DefaultConfig(5)
	cfgUp.Direction = TowardsIsUp
	up, err := New(cfgUp, characteristic())
	if err != nil {
		t.Fatal(err)
	}
	// TowardsIsDown: nearest distance (highest voltage) is the last entry.
	dNear, err := down.DistanceFor(4)
	if err != nil {
		t.Fatal(err)
	}
	dFar, err := down.DistanceFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if dNear >= dFar {
		t.Fatalf("TowardsIsDown: entry 4 at %f should be nearer than entry 0 at %f", dNear, dFar)
	}
	// TowardsIsUp: inverted.
	uNear, err := up.DistanceFor(0)
	if err != nil {
		t.Fatal(err)
	}
	uFar, err := up.DistanceFor(4)
	if err != nil {
		t.Fatal(err)
	}
	if uNear >= uFar {
		t.Fatalf("TowardsIsUp: entry 0 at %f should be nearer than entry 4 at %f", uNear, uFar)
	}
}

func TestMapIslandCentresRoundTrip(t *testing.T) {
	ch := characteristic()
	f := func(nRaw, iRaw uint8) bool {
		n := int(nRaw%39) + 2 // 2..40
		m, err := New(DefaultConfig(n), ch)
		if err != nil {
			return false
		}
		idx := int(iRaw) % n
		is, ok := m.IslandFor(idx)
		if !ok {
			return false
		}
		got, active := m.Map(is.Center)
		return active && got == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBetweenIslandsNoSelection(t *testing.T) {
	m := newMapper(t, 5)
	islands := m.Islands()
	// Midpoint of the gap between two islands.
	gapMid := (islands[1].Hi + islands[2].Lo) / 2
	idx, active := m.Map(gapMid)
	if active || idx != -1 {
		t.Fatalf("gap voltage selected entry %d", idx)
	}
	if m.Current() != -1 {
		t.Fatalf("Current = %d, want -1", m.Current())
	}
}

func TestHysteresisHoldsSelectionAtBoundary(t *testing.T) {
	m := newMapper(t, 5)
	islands := m.Islands()
	is := islands[2]
	// Enter the island.
	if _, active := m.Map(is.Center); !active {
		t.Fatal("failed to enter island")
	}
	// Step just outside: hysteresis keeps us selected.
	h := m.Config().Hysteresis * (is.Hi - is.Lo) / 2
	idx, active := m.Map(is.Hi + h/2)
	if !active || idx != is.Index {
		t.Fatalf("hysteresis failed: idx=%d active=%t", idx, active)
	}
	// Step well outside: this island's selection drops (the voltage may
	// land in a neighbouring island, but never stick to this one).
	if idx, active := m.Map(is.Hi + 10*h); active && idx == is.Index {
		t.Fatal("selection stuck to the island far outside its bounds")
	}
}

func TestHysteresisSuppressesBoundaryFlicker(t *testing.T) {
	noHyst := DefaultConfig(10)
	noHyst.Hysteresis = 0
	mNo, err := New(noHyst, characteristic())
	if err != nil {
		t.Fatal(err)
	}
	mYes := newMapper(t, 10)

	islands := mYes.Islands()
	edge := islands[4].Hi
	// Tremor-like dithering across the boundary.
	flips := func(m *Mapper) int {
		m.Reset()
		count := 0
		last := -2
		for i := 0; i < 200; i++ {
			offset := 0.002
			if i%2 == 0 {
				offset = -0.002
			}
			idx, active := m.Map(edge + offset)
			cur := -1
			if active {
				cur = idx
			}
			if cur != last && last != -2 {
				count++
			}
			last = cur
		}
		return count
	}
	if fNo, fYes := flips(mNo), flips(mYes); fYes >= fNo {
		t.Fatalf("hysteresis did not reduce flicker: with=%d without=%d", fYes, fNo)
	}
}

func TestConfigValidation(t *testing.T) {
	ch := characteristic()
	if _, err := New(Config{Entries: 0, NearCm: 4, FarCm: 30}, ch); !errors.Is(err, ErrNoEntries) {
		t.Fatalf("zero entries: %v", err)
	}
	if _, err := New(Config{Entries: 3, NearCm: 30, FarCm: 4}, ch); !errors.Is(err, ErrBadRange) {
		t.Fatalf("inverted range: %v", err)
	}
	bad := DefaultConfig(3)
	bad.GapFraction = 1
	if _, err := New(bad, ch); err == nil {
		t.Fatal("gap=1 accepted")
	}
	bad = DefaultConfig(3)
	bad.Hysteresis = -1
	if _, err := New(bad, ch); err == nil {
		t.Fatal("negative hysteresis accepted")
	}
	if _, err := New(DefaultConfig(3), nil); err == nil {
		t.Fatal("nil characteristic accepted")
	}
	// Non-monotone characteristic (includes the fold-back region).
	nonMono := DefaultConfig(10)
	nonMono.NearCm = 1
	if _, err := New(nonMono, ch); !errors.Is(err, ErrNotMonotone) {
		t.Fatalf("fold-back range: %v", err)
	}
}

func TestSingleEntry(t *testing.T) {
	m, err := New(DefaultConfig(1), characteristic())
	if err != nil {
		t.Fatal(err)
	}
	is := m.Islands()[0]
	idx, active := m.Map(is.Center)
	if !active || idx != 0 {
		t.Fatalf("single entry: idx=%d active=%t", idx, active)
	}
	if w := m.EntryWidthCm(); w != 26 {
		t.Fatalf("single-entry width = %f", w)
	}
}

func TestEntryWidth(t *testing.T) {
	m := newMapper(t, 14)
	want := 26.0 / 13
	if got := m.EntryWidthCm(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("width = %f, want %f", got, want)
	}
}

func TestDistanceForUnknownEntry(t *testing.T) {
	m := newMapper(t, 3)
	if _, err := m.DistanceFor(7); err == nil {
		t.Fatal("unknown entry accepted")
	}
}

func TestResetClearsHysteresis(t *testing.T) {
	m := newMapper(t, 5)
	is := m.Islands()[1]
	if _, active := m.Map(is.Center); !active {
		t.Fatal("enter failed")
	}
	m.Reset()
	if m.Current() != -1 {
		t.Fatal("Reset did not clear current island")
	}
}

func TestGapFractionZeroTouchingIslandsStillWork(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.GapFraction = 0
	cfg.Hysteresis = 0
	m, err := New(cfg, characteristic())
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range m.Islands() {
		idx, active := m.Map(is.Center)
		if !active || idx != is.Index {
			t.Fatalf("centre of island %d not mapped (got %d)", is.Index, idx)
		}
	}
}

// TestMappersShareTable checks that mappers over one table read one island
// array yet keep their own active island and counters, and that Islands
// hands out a copy that cannot edit the shared table.
func TestMappersShareTable(t *testing.T) {
	tab, err := NewTable(DefaultConfig(5), characteristic())
	if err != nil {
		t.Fatal(err)
	}
	a, b := tab.NewMapper(), tab.NewMapper()
	if &a.islands[0] != &b.islands[0] {
		t.Fatal("mappers over one table hold separate island arrays")
	}
	is := tab.Islands()[2]
	if idx, active := a.Map(is.Center); !active || idx != is.Index {
		t.Fatalf("Map(centre) = %d, %t", idx, active)
	}
	if b.Current() != -1 || b.Stats() != (MapStats{}) {
		t.Fatalf("a's lookup moved b: current %d, stats %+v", b.Current(), b.Stats())
	}
	tab.Islands()[2].Lo = is.Hi
	if tab.Islands()[2] != is {
		t.Fatal("editing the Islands copy changed the table")
	}
}
