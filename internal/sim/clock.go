// Package sim provides the deterministic simulation substrate used by every
// other package in this repository: a virtual clock, an event scheduler and
// a seeded random source.
//
// Nothing in the simulation reads wall-clock time. All models advance on a
// *Clock owned by the caller, which makes every experiment reproducible from
// its seed.
//
// Two scheduler implementations share one contract (EventScheduler): the
// default Scheduler is a binary min-heap of value events in one reusable
// slice (no per-event allocation, sized by the events pending, not by the
// time span they cover), and HeapScheduler is the original container/heap
// implementation over individually allocated events, kept as the executable
// reference semantics. A differential test drives both with the same
// schedules and requires identical event order, so per-seed determinism is
// provable rather than assumed.
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

// Advance moves the clock forward by d. Negative values are ignored: virtual
// time never runs backwards.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}

// Set moves the clock to an absolute time. It is a no-op if t is in the
// past relative to the clock.
func (c *Clock) Set(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// EventScheduler is the contract both scheduler implementations satisfy.
// Every caller in the repository (firmware tick, ARQ retransmit timers, link
// delivery, fleet scripts) programs against this interface, so the value heap
// and the reference heap are interchangeable — and differentially testable.
//
// Semantics all implementations must share:
//
//   - Events run in (time, schedule order): equal-time events fire FIFO.
//   - Events scheduled in the past clamp to the current time and still run.
//   - Events scheduled from inside a callback at the current time run within
//     the same Run, after the already-queued equal-time events.
//   - Every with a non-positive period schedules nothing and returns a
//     callable no-op cancel (see Scheduler.Every).
//   - Run leaves the clock exactly at the horizon when it returns nil —
//     whether the queue drained early or the next event lies beyond it — and
//     at the stopping event's time when it returns ErrStopped.
type EventScheduler interface {
	// Clock returns the scheduler's clock.
	Clock() *Clock
	// At schedules fn to run at absolute virtual time t. Events scheduled
	// in the past run at the current time.
	At(t time.Duration, fn func(at time.Duration))
	// After schedules fn to run d after the current virtual time.
	After(d time.Duration, fn func(at time.Duration))
	// Every schedules fn to run periodically with the given period, starting
	// one period from now, until the returned cancel function is called.
	// A non-positive period schedules nothing and returns a no-op cancel.
	Every(period time.Duration, fn func(at time.Duration)) (cancel func())
	// Step executes the next queued event, advancing the clock to its time.
	// It reports whether an event was executed.
	Step() bool
	// Run executes events until the queue is empty or the horizon is passed,
	// leaving the clock at the horizon. It returns ErrStopped if Stop was
	// called from a callback.
	Run(horizon time.Duration) error
	// Pending reports the number of queued events.
	Pending() int
	// Stop aborts a Run in progress (from inside a callback).
	Stop()
}

var (
	_ EventScheduler = (*Scheduler)(nil)
	_ EventScheduler = (*HeapScheduler)(nil)
)
