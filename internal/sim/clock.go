// Package sim provides the deterministic simulation substrate used by every
// other package in this repository: a virtual clock, an event scheduler and
// a seeded random source.
//
// Nothing in the simulation reads wall-clock time. All models advance on a
// *Clock owned by the caller, which makes every experiment reproducible from
// its seed.
//
// There is one event scheduler, Scheduler: a binary min-heap of value events
// in one reusable slice (no per-event allocation, sized by the events
// pending, not by the time span they cover). Every timer in the simulator
// runs on it: the firmware tick, link delivery, ARQ retransmits, the ack
// back-channel and fleet scripts. The package's tests keep the original
// container/heap implementation as the executable reference semantics; a
// differential test drives both with the same schedules and requires
// identical event order, so per-seed determinism is provable rather than
// assumed.
package sim

import (
	"errors"
	"time"
)

// ErrStopped is returned by Run when the scheduler was stopped before the
// horizon was reached.
var ErrStopped = errors.New("scheduler stopped")

// Clock is a virtual clock. The zero value starts at t=0.
type Clock struct {
	now time.Duration
}

// NewClock returns a clock starting at the given offset.
func NewClock(start time.Duration) *Clock {
	return &Clock{now: start}
}

// Now reports the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Set moves the clock to an absolute time. It is a no-op if t is in the
// past relative to the clock.
func (c *Clock) Set(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// EventScheduler is another name for *Scheduler. It exists only because the
// perfbench module's fleet-arq workload (perfbench/fleetarq.go) spells its
// core.Config.Transport parameter with it, and perfbench changes only
// together with the benchmark; the next benchmark change writes *Scheduler
// there and deletes this line. Nothing else may use it.
type EventScheduler = *Scheduler
