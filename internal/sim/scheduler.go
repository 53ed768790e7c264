package sim

import "time"

// event is one scheduled callback, stored by value in the scheduler's queue.
type event struct {
	at  int64  // absolute virtual nanoseconds
	seq uint64 // schedule order: the tie-break among equal times
	fn  func(at time.Duration)
}

// before is the queue order: by time, then by schedule order. seq is unique
// per scheduler, so this is a strict total order and the dispatch sequence
// never depends on the heap's internal layout.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Scheduler executes events in virtual-time order on a shared Clock using a
// binary min-heap of value events in one slice. A simulated device holds a
// handful of timers (firmware tick, link delivery, ARQ retransmit), so the
// queue is a few dozen bytes per pending event rather than a fixed-size
// structure per device; the slice grows to the device's working set and is
// then reused, so steady-state scheduling and dispatch allocate nothing.
//
// Semantics, checked against the container/heap reference kept in this
// package's tests, which must produce identical event sequences:
//
//   - Events run in (time, schedule order): equal-time events fire FIFO.
//   - Events scheduled in the past clamp to the current time and still run.
//   - Events scheduled from inside a callback at the current time run within
//     the same Run, after the already-queued equal-time events.
//   - Every with a non-positive period schedules nothing and returns a
//     callable no-op cancel.
//   - Run leaves the clock exactly at the horizon when it returns nil —
//     whether the queue drained early or the next event lies beyond it — and
//     at the stopping event's time when it returns ErrStopped.
//
// It is single-threaded by design: callbacks run on the caller's goroutine.
type Scheduler struct {
	clock   *Clock
	queue   []event
	seq     uint64
	stopped bool
}

// NewScheduler returns a scheduler driving the given clock.
func NewScheduler(clock *Clock) *Scheduler {
	s := new(Scheduler)
	s.Init(clock)
	return s
}

// Init resets s in place to an empty scheduler driving the given clock, so
// an owner can hold its Scheduler by value.
func (s *Scheduler) Init(clock *Clock) {
	*s = Scheduler{clock: clock}
}

// Clock returns the scheduler's clock.
func (s *Scheduler) Clock() *Clock { return s.clock }

// At schedules fn to run at absolute virtual time t. Events scheduled in the
// past run at the current time.
func (s *Scheduler) At(t time.Duration, fn func(at time.Duration)) {
	if now := s.clock.Now(); t < now {
		t = now
	}
	s.seq++
	e := event{at: int64(t), seq: s.seq, fn: fn}
	// Sift up through a hole: parents move down one level each, and the new
	// event is written once, where it belongs.
	q := append(s.queue, event{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	s.queue = q
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func(at time.Duration)) {
	s.At(s.clock.Now()+d, fn)
}

// Every schedules fn to run periodically with the given period, starting one
// period from now, until the returned cancel function is called. A
// non-positive period schedules nothing and returns a no-op cancel: at fleet
// horizons a silently clamped period would be an event storm, so the
// degenerate case is an explicit no-op instead.
func (s *Scheduler) Every(period time.Duration, fn func(at time.Duration)) (cancel func()) {
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
func (s *Scheduler) Pending() int { return len(s.queue) }

// Stop aborts a Run in progress (from inside a callback).
func (s *Scheduler) Stop() { s.stopped = true }

// pop removes and returns the earliest event. The vacated last slot is
// zeroed so the backing array does not keep the callback alive.
func (s *Scheduler) pop() event {
	q := s.queue
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = event{}
	q = q[:n]
	s.queue = q
	if n == 0 {
		return top
	}
	// Sift the former last event down from the root through a hole.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// Step executes the next queued event, advancing the clock to its time.
// It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.pop()
	at := time.Duration(e.at)
	s.clock.Set(at)
	e.fn(at)
	return true
}

// Run executes events until the queue is empty or the horizon is passed.
// When it returns nil the clock is at the horizon — on a clean drain the
// clock advances the rest of the way so elapsed time is the same whether or
// not a device had late events. Run returns ErrStopped if Stop was called,
// leaving the clock at the stopping event's time.
func (s *Scheduler) Run(horizon time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 && s.queue[0].at <= int64(horizon) {
		if s.stopped {
			return ErrStopped
		}
		s.Step()
	}
	if s.stopped {
		return ErrStopped
	}
	s.clock.Set(horizon)
	return nil
}
