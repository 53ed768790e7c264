package sim

import (
	"errors"
	"testing"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock(0)
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Set(time.Second)
	if c.Now() != time.Second {
		t.Fatalf("Set: %v", c.Now())
	}
	c.Set(500 * time.Millisecond)
	if c.Now() != time.Second {
		t.Fatal("Set moved the clock into the past")
	}
	c.Set(2 * time.Second)
	if c.Now() != 2*time.Second {
		t.Fatalf("Set: %v", c.Now())
	}
}

// schedulers enumerates both implementations so every semantic test runs
// against the Scheduler and the heap reference: the semantics in Scheduler's
// doc comment are what the differential tests prove they share. The
// default's subtest name predates the value heap and is kept so test IDs
// stay stable.
func schedulers() map[string]func(*Clock) eventScheduler {
	return map[string]func(*Clock) eventScheduler{
		"wheel": func(c *Clock) eventScheduler { return NewScheduler(c) },
		"heap":  func(c *Clock) eventScheduler { return NewHeapScheduler(c) },
	}
}

func TestSchedulerOrdersEvents(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk(NewClock(0))
			var order []int
			s.At(30*time.Millisecond, func(time.Duration) { order = append(order, 3) })
			s.At(10*time.Millisecond, func(time.Duration) { order = append(order, 1) })
			s.At(20*time.Millisecond, func(time.Duration) { order = append(order, 2) })
			if err := s.Run(time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			want := []int{1, 2, 3}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("order = %v, want %v", order, want)
				}
			}
		})
	}
}

func TestSchedulerEqualTimesFIFO(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk(NewClock(0))
			var order []int
			for i := 0; i < 10; i++ {
				i := i
				s.At(time.Millisecond, func(time.Duration) { order = append(order, i) })
			}
			if err := s.Run(time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			for i := range order {
				if order[i] != i {
					t.Fatalf("equal-time events not FIFO: %v", order)
				}
			}
		})
	}
}

// Equal-time FIFO must hold however far ahead each event was scheduled: one
// scheduled 100 ms ahead, one scheduled for the same instant from 1 ns
// before it.
func TestSchedulerEqualTimesFIFOAcrossLevels(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk(NewClock(0))
			target := 100 * time.Millisecond
			var order []int
			s.At(target, func(time.Duration) { order = append(order, 1) }) // far ahead
			s.At(target-time.Nanosecond, func(at time.Duration) {
				// Scheduled 1 ns before the target.
				s.At(target, func(time.Duration) { order = append(order, 2) })
			})
			if err := s.Run(time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(order) != 2 || order[0] != 1 || order[1] != 2 {
				t.Fatalf("cross-level equal-time order = %v, want [1 2]", order)
			}
		})
	}
}

// Events scheduled from inside a callback at the callback's own time run in
// the same tick (same Run, same virtual instant), after already-queued
// equal-time events.
func TestSchedulerCallbackSchedulesSameTick(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk(NewClock(0))
			var order []int
			s.At(time.Millisecond, func(at time.Duration) {
				order = append(order, 1)
				s.At(at, func(inner time.Duration) {
					if inner != at {
						t.Fatalf("nested event at %v, want %v", inner, at)
					}
					order = append(order, 3)
				})
			})
			s.At(time.Millisecond, func(time.Duration) { order = append(order, 2) })
			if err := s.Run(time.Millisecond); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
				t.Fatalf("order = %v, want [1 2 3]", order)
			}
		})
	}
}

func TestSchedulerPastEventsRunNow(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			c := NewClock(time.Second)
			s := mk(c)
			var at time.Duration
			s.At(100*time.Millisecond, func(now time.Duration) { at = now })
			if !s.Step() {
				t.Fatal("Step found no event")
			}
			if at != time.Second {
				t.Fatalf("past event ran at %v, want clamped to now (1s)", at)
			}
		})
	}
}

func TestSchedulerHorizonStopsBeforeLaterEvents(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk(NewClock(0))
			ran := false
			s.At(2*time.Second, func(time.Duration) { ran = true })
			if err := s.Run(time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if ran {
				t.Fatal("event beyond the horizon ran")
			}
			if s.Clock().Now() != time.Second {
				t.Fatalf("clock at %v, want horizon 1s", s.Clock().Now())
			}
			if s.Pending() != 1 {
				t.Fatalf("pending = %d, want 1", s.Pending())
			}
			// A later Run executes it.
			if err := s.Run(3 * time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !ran {
				t.Fatal("event did not run after horizon extension")
			}
		})
	}
}

// Run must leave the clock at the horizon when the queue drains early, so
// Elapsed is consistent across devices regardless of when their last event
// fired (regression test for the doc/behaviour mismatch fixed in PR 6).
func TestSchedulerRunDrainsToHorizon(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk(NewClock(0))
			s.At(100*time.Millisecond, func(time.Duration) {})
			if err := s.Run(time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if s.Clock().Now() != time.Second {
				t.Fatalf("clock at %v after clean drain, want horizon 1s", s.Clock().Now())
			}
			// An empty queue still advances to the horizon.
			if err := s.Run(5 * time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if s.Clock().Now() != 5*time.Second {
				t.Fatalf("clock at %v after empty Run, want 5s", s.Clock().Now())
			}
		})
	}
}

func TestSchedulerEveryAndCancel(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk(NewClock(0))
			count := 0
			cancel := s.Every(100*time.Millisecond, func(time.Duration) { count++ })
			if err := s.Run(time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if count != 10 {
				t.Fatalf("ticks = %d, want 10", count)
			}
			cancel()
			if err := s.Run(2 * time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if count != 10 {
				t.Fatalf("ticks after cancel = %d, want 10", count)
			}
		})
	}
}

// Every with a non-positive period must be a no-op, not a 1 ns event storm
// (regression test for the clamp fixed in PR 6): at a fleet horizon of one
// virtual second the old clamp meant a billion events.
func TestSchedulerEveryNonPositivePeriod(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			for _, period := range []time.Duration{0, -time.Millisecond} {
				s := mk(NewClock(0))
				count := 0
				cancel := s.Every(period, func(time.Duration) { count++ })
				if s.Pending() != 0 {
					t.Fatalf("Every(%v) queued %d events, want 0", period, s.Pending())
				}
				if err := s.Run(time.Second); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if count != 0 {
					t.Fatalf("Every(%v) ticked %d times, want 0", period, count)
				}
				cancel() // must be callable
			}
		})
	}
}

func TestSchedulerStopFromCallback(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk(NewClock(0))
			count := 0
			s.Every(10*time.Millisecond, func(time.Duration) {
				count++
				if count == 3 {
					s.Stop()
				}
			})
			err := s.Run(time.Second)
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("Run error = %v, want ErrStopped", err)
			}
			if count != 3 {
				t.Fatalf("count = %d, want 3", count)
			}
			// The clock stays at the stopping event's time, not the horizon.
			if s.Clock().Now() != 30*time.Millisecond {
				t.Fatalf("clock at %v after Stop, want 30ms", s.Clock().Now())
			}
		})
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			c := NewClock(5 * time.Second)
			s := mk(c)
			var at time.Duration
			s.After(time.Second, func(now time.Duration) { at = now })
			if err := s.Run(10 * time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if at != 6*time.Second {
				t.Fatalf("After event at %v, want 6s", at)
			}
		})
	}
}

// Far-future events, hours ahead of near ones, must still fire at their
// exact times and in order with near events.
func TestSchedulerFarFutureEvents(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := mk(NewClock(0))
			var order []time.Duration
			note := func(at time.Duration) { order = append(order, at) }
			s.At(time.Hour, note)
			s.At(10*time.Second, note)
			s.At(time.Millisecond, note)
			s.At(30*time.Minute, note)
			if err := s.Run(2 * time.Hour); err != nil {
				t.Fatalf("Run: %v", err)
			}
			want := []time.Duration{time.Millisecond, 10 * time.Second, 30 * time.Minute, time.Hour}
			if len(order) != len(want) {
				t.Fatalf("fired %v, want %v", order, want)
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("fired %v, want %v", order, want)
				}
			}
		})
	}
}
