// Package mapping implements the DistScroll island mapping of paper
// Section 4.2.
//
// The sensor characteristic is non-linear, so "we could not choose a linear
// mapping between sensor values and structure entities". Instead the paper:
//
//  1. chooses how many entities lie in the data structure,
//  2. distributes them equally over the *physical* scroll distance,
//  3. computes the expected sensor value at each entity's distance from the
//     fitted characteristic,
//  4. defines voltage "islands" around the expected values such that the
//     islands do not cover the complete spectrum — between islands no entry
//     is selected — giving "the perception that the entries are equally
//     spaced on the complete scrollable distance".
package mapping

import (
	"errors"
	"fmt"
	"sort"
)

// Direction selects which physical motion scrolls down the structure (the
// paper's open question: "Is it more intuitive to move the DistScroll
// towards oneself to scroll down or to scroll up").
type Direction int

// Direction values.
const (
	// TowardsIsDown maps moving the device towards the body to scrolling
	// down (entry index increases as distance shrinks).
	TowardsIsDown Direction = iota + 1
	// TowardsIsUp maps moving towards the body to scrolling up.
	TowardsIsUp
)

// Characteristic converts a distance in cm into the expected sensor
// voltage. It must be strictly decreasing over the mapped range (the
// monotone branch of the GP2D120 curve).
type Characteristic func(distanceCm float64) float64

// Config parameterises a Mapper.
type Config struct {
	// Entries is the number of entities to distribute.
	Entries int
	// NearCm and FarCm bound the physical scroll range (paper: 4–30 cm).
	NearCm, FarCm float64
	// GapFraction is the fraction of each inter-entry voltage span left
	// uncovered between islands (0 = touching islands, 0.4 = default).
	GapFraction float64
	// Direction maps motion to scroll direction.
	Direction Direction
	// Hysteresis widens the *current* island by this fraction of its
	// half-width so tremor at a boundary does not flicker the selection.
	Hysteresis float64
}

// DefaultConfig returns the configuration used by the prototype firmware.
func DefaultConfig(entries int) Config {
	return Config{
		Entries:     entries,
		NearCm:      4,
		FarCm:       30,
		GapFraction: 0.4,
		Direction:   TowardsIsDown,
		Hysteresis:  0.25,
	}
}

// Island is one selectable voltage interval.
type Island struct {
	Index      int     // entry index, 0-based from the top of the structure
	DistanceCm float64 // physical centre
	Center     float64 // expected voltage at the centre
	Lo, Hi     float64 // island bounds in volts
}

// Contains reports whether v lies inside the island.
func (is Island) Contains(v float64) bool { return v >= is.Lo && v <= is.Hi }

// MapStats counts mapping activity. The mapper is single-goroutine (it
// lives inside one device's firmware), so the counters are plain; the
// firmware mirrors them into its telemetry registry.
type MapStats struct {
	// Lookups counts Map calls.
	Lookups uint64
	// Holds counts hysteresis retentions: the voltage left the strict
	// island bounds but stayed within the widened band, so the selection
	// held instead of flickering.
	Holds uint64
	// Switches counts active-island changes (including entering an island
	// from the gap).
	Switches uint64
	// Misses counts lookups that landed between islands with no selection.
	Misses uint64
}

// Table is the island layout of one configuration over one sensor
// characteristic. It is read-only once built, so any number of mappers, on
// any number of goroutines, may share it.
type Table struct {
	cfg     Config
	islands []Island // sorted by ascending voltage
}

// Mapper maps filtered sensor voltages to entry indices. It is the
// per-device state (the active island and the counters) over a shared
// Table, whose read-only methods it carries.
type Mapper struct {
	*Table
	current int // active island index into islands, -1 when none
	stats   MapStats
}

// Validation errors.
var (
	// ErrNoEntries is returned for a structure with fewer than one entry.
	ErrNoEntries = errors.New("mapping: need at least one entry")
	// ErrBadRange is returned for an invalid physical range.
	ErrBadRange = errors.New("mapping: invalid distance range")
	// ErrNotMonotone is returned when the characteristic is not strictly
	// decreasing over the range.
	ErrNotMonotone = errors.New("mapping: characteristic not strictly decreasing")
)

// New builds a mapper over a fresh table from a configuration and a sensor
// characteristic.
func New(cfg Config, ch Characteristic) (*Mapper, error) {
	t, err := NewTable(cfg, ch)
	if err != nil {
		return nil, err
	}
	return t.NewMapper(), nil
}

// NewTable builds the island table of a configuration and a sensor
// characteristic.
func NewTable(cfg Config, ch Characteristic) (*Table, error) {
	if cfg.Entries < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrNoEntries, cfg.Entries)
	}
	if cfg.FarCm <= cfg.NearCm || cfg.NearCm <= 0 {
		return nil, fmt.Errorf("%w: [%g,%g]", ErrBadRange, cfg.NearCm, cfg.FarCm)
	}
	if cfg.GapFraction < 0 || cfg.GapFraction >= 1 {
		return nil, fmt.Errorf("mapping: gap fraction %g not in [0,1)", cfg.GapFraction)
	}
	if cfg.Hysteresis < 0 {
		return nil, fmt.Errorf("mapping: hysteresis %g must be non-negative", cfg.Hysteresis)
	}
	if cfg.Direction == 0 {
		cfg.Direction = TowardsIsDown
	}
	if ch == nil {
		return nil, errors.New("mapping: characteristic is required")
	}

	t := &Table{cfg: cfg}

	// Step 1+2: distribute entry centres equally over the physical range.
	centres := make([]float64, cfg.Entries)
	if cfg.Entries == 1 {
		centres[0] = (cfg.NearCm + cfg.FarCm) / 2
	} else {
		step := (cfg.FarCm - cfg.NearCm) / float64(cfg.Entries-1)
		for i := range centres {
			centres[i] = cfg.NearCm + float64(i)*step
		}
	}

	// Step 3: expected voltage per centre; verify monotonicity.
	volts := make([]float64, cfg.Entries)
	for i, d := range centres {
		volts[i] = ch(d)
		if i > 0 && volts[i] >= volts[i-1] {
			return nil, fmt.Errorf("%w: V(%.2fcm)=%.4f >= V(%.2fcm)=%.4f",
				ErrNotMonotone, centres[i], volts[i], centres[i-1], volts[i-1])
		}
	}

	// Step 4: islands with gaps. Each island spans (1-gap)/2 of the way
	// towards each neighbour; the outermost islands extend symmetrically.
	cover := (1 - cfg.GapFraction) / 2
	t.islands = make([]Island, cfg.Entries)
	for i := range volts {
		is := Island{DistanceCm: centres[i], Center: volts[i]}
		// Entry index depends on direction: with TowardsIsDown, the
		// nearest (highest-voltage) centre is the *last* entry.
		switch cfg.Direction {
		case TowardsIsDown:
			is.Index = cfg.Entries - 1 - i
		default:
			is.Index = i
		}
		var spanUp, spanDown float64
		switch {
		case cfg.Entries == 1:
			spanUp, spanDown = 0.05, 0.05
		case i == 0:
			spanUp = volts[i] - volts[i+1]
			spanDown = spanUp
		case i == cfg.Entries-1:
			spanDown = volts[i-1] - volts[i]
			spanUp = spanDown
		default:
			spanUp = volts[i] - volts[i+1]
			spanDown = volts[i-1] - volts[i]
		}
		is.Hi = volts[i] + cover*spanDown
		is.Lo = volts[i] - cover*spanUp
		t.islands[i] = is
	}

	// Store ascending by voltage for binary search.
	sort.Slice(t.islands, func(a, b int) bool { return t.islands[a].Center < t.islands[b].Center })
	return t, nil
}

// NewMapper returns a mapper over the table with no active island and zero
// counters.
func (t *Table) NewMapper() *Mapper {
	m := new(Mapper)
	m.Init(t)
	return m
}

// Init resets m in place to a mapper over t with no active island and zero
// counters, so an owner can hold its Mapper by value.
func (m *Mapper) Init(t *Table) { *m = Mapper{Table: t, current: -1} }

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Islands returns a copy of the islands sorted by ascending voltage.
func (t *Table) Islands() []Island {
	out := make([]Island, len(t.islands))
	copy(out, t.islands)
	return out
}

// Reset clears the hysteresis state.
func (m *Mapper) Reset() { m.current = -1 }

// Current returns the active entry index, or -1 when between islands.
func (m *Mapper) Current() int {
	if m.current < 0 {
		return -1
	}
	return m.islands[m.current].Index
}

// Map consumes a filtered voltage and returns the selected entry index and
// whether the selection is active. Between islands the previous selection
// is retained if the voltage is still within the hysteresis-widened bounds
// of the current island; otherwise no entry is selected and the previous
// index is kept only as Current() == -1 → caller keeps cursor (the paper:
// "No selection or change happens if the device is held in a distance
// between two of those islands").
func (m *Mapper) Map(v float64) (index int, active bool) {
	m.stats.Lookups++
	// Hysteresis: stay in the current island while close to it.
	if m.current >= 0 {
		is := m.islands[m.current]
		h := m.cfg.Hysteresis * (is.Hi - is.Lo) / 2
		if v >= is.Lo-h && v <= is.Hi+h {
			if v < is.Lo || v > is.Hi {
				m.stats.Holds++
			}
			return is.Index, true
		}
	}
	// Binary search for a containing island.
	lo, hi := 0, len(m.islands)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		is := m.islands[mid]
		switch {
		case v < is.Lo:
			hi = mid - 1
		case v > is.Hi:
			lo = mid + 1
		default:
			if mid != m.current {
				m.stats.Switches++
			}
			m.current = mid
			return is.Index, true
		}
	}
	m.current = -1
	m.stats.Misses++
	return -1, false
}

// Stats returns the mapping activity counters.
func (m *Mapper) Stats() MapStats { return m.stats }

// IslandFor returns the island belonging to an entry index.
func (t *Table) IslandFor(index int) (Island, bool) {
	for _, is := range t.islands {
		if is.Index == index {
			return is, true
		}
	}
	return Island{}, false
}

// DistanceFor returns the physical centre distance of an entry index, which
// the hand model steers towards.
func (t *Table) DistanceFor(index int) (float64, error) {
	is, ok := t.IslandFor(index)
	if !ok {
		return 0, fmt.Errorf("mapping: no island for entry %d", index)
	}
	return is.DistanceCm, nil
}

// EntryWidthCm returns the physical width (cm) of one entry's island plus
// gap — the effective target width W for Fitts's-law analysis.
func (t *Table) EntryWidthCm() float64 {
	if t.cfg.Entries <= 1 {
		return t.cfg.FarCm - t.cfg.NearCm
	}
	return (t.cfg.FarCm - t.cfg.NearCm) / float64(t.cfg.Entries-1)
}
