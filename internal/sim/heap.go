package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled callback. The callback receives the time at which it
// fires.
type Event struct {
	At time.Duration
	Do func(at time.Duration)

	seq int // tie-break so equal-time events fire in schedule order
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) {
	ev, ok := x.(*Event)
	if !ok {
		panic(fmt.Sprintf("sim: pushed %T onto event queue", x))
	}
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// HeapScheduler executes events in virtual-time order on a shared Clock
// using a comparison heap of individually allocated events. It is the
// original scheduler implementation, kept as the executable reference
// semantics for the value-heap Scheduler: the differential tests drive
// both with identical schedules and require identical event order.
//
// It is single-threaded by design: callbacks run on the caller's goroutine.
type HeapScheduler struct {
	clock   *Clock
	queue   eventQueue
	nextSeq int
	stopped bool
}

// NewHeapScheduler returns a heap-based scheduler driving the given clock.
func NewHeapScheduler(clock *Clock) *HeapScheduler {
	return &HeapScheduler{clock: clock}
}

// Clock returns the scheduler's clock.
func (s *HeapScheduler) Clock() *Clock { return s.clock }

// At schedules fn to run at absolute virtual time t. Events scheduled in the
// past run at the current time.
func (s *HeapScheduler) At(t time.Duration, fn func(at time.Duration)) {
	if t < s.clock.Now() {
		t = s.clock.Now()
	}
	ev := &Event{At: t, Do: fn, seq: s.nextSeq}
	s.nextSeq++
	heap.Push(&s.queue, ev)
}

// After schedules fn to run d after the current virtual time.
func (s *HeapScheduler) After(d time.Duration, fn func(at time.Duration)) {
	s.At(s.clock.Now()+d, fn)
}

// Every schedules fn to run periodically with the given period, starting one
// period from now, until the returned cancel function is called. A
// non-positive period schedules nothing and returns a no-op cancel: at fleet
// horizons a silently clamped period would be an event storm, so the
// degenerate case is an explicit no-op instead (see EventScheduler).
func (s *HeapScheduler) Every(period time.Duration, fn func(at time.Duration)) (cancel func()) {
	if period <= 0 {
		return func() {}
	}
	active := true
	var tick func(at time.Duration)
	tick = func(at time.Duration) {
		if !active {
			return
		}
		fn(at)
		if active {
			s.At(at+period, tick)
		}
	}
	s.At(s.clock.Now()+period, tick)
	return func() { active = false }
}

// Pending reports the number of queued events.
func (s *HeapScheduler) Pending() int { return len(s.queue) }

// Stop aborts a Run in progress (from inside a callback).
func (s *HeapScheduler) Stop() { s.stopped = true }

// Step executes the next queued event, advancing the clock to its time.
// It reports whether an event was executed.
func (s *HeapScheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev, ok := heap.Pop(&s.queue).(*Event)
	if !ok {
		return false
	}
	s.clock.Set(ev.At)
	ev.Do(ev.At)
	return true
}

// Run executes events until the queue is empty or the horizon is passed.
// When it returns nil the clock is at the horizon — on a clean drain the
// clock advances the rest of the way so elapsed time is the same whether or
// not a device had late events. Run returns ErrStopped if Stop was called,
// leaving the clock at the stopping event's time.
func (s *HeapScheduler) Run(horizon time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 {
		if s.stopped {
			return ErrStopped
		}
		if s.queue[0].At > horizon {
			s.clock.Set(horizon)
			return nil
		}
		s.Step()
	}
	if s.stopped {
		return ErrStopped
	}
	s.clock.Set(horizon)
	return nil
}
