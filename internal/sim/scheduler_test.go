package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestSchedulerDifferential drives the value heap and the heap reference with
// identical randomized schedules — bursts of equal times, nested scheduling
// from callbacks, periodic timers with cancellation, far-future events, and
// staged Run horizons — and requires the exact same event sequence (time and
// identity) from both. This is the proof that the default scheduler
// preserves per-seed determinism.
func TestSchedulerDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			valueTrace := differentialTrace(NewScheduler(NewClock(0)), seed)
			heapTrace := differentialTrace(NewHeapScheduler(NewClock(0)), seed)
			if len(valueTrace) != len(heapTrace) {
				t.Fatalf("trace lengths differ: value heap %d, reference %d", len(valueTrace), len(heapTrace))
			}
			for i := range valueTrace {
				if valueTrace[i] != heapTrace[i] {
					t.Fatalf("traces diverge at %d: value heap %+v, reference %+v", i, valueTrace[i], heapTrace[i])
				}
			}
			if len(valueTrace) == 0 {
				t.Fatal("empty trace: the differential test exercised nothing")
			}
		})
	}
}

// traceEntry is one step of a differential trace: an event execution (id
// > 0), the clock after a staged Run and whether it failed (id 0), or the
// final clock, failure and pending count (id -1). It holds no pointers, so
// the garbage collector never scans the traces.
type traceEntry struct {
	id      int
	at      time.Duration
	failed  bool
	pending int
}

// differentialTrace runs one randomized schedule against s and returns the
// ordered (id, time) trace of every event execution. The schedule depends
// only on the seed, never on the scheduler, so both implementations see the
// same program.
func differentialTrace(s EventScheduler, seed uint64) []traceEntry {
	rng := NewRand(seed)
	var trace []traceEntry
	note := func(id int) func(time.Duration) {
		return func(at time.Duration) {
			trace = append(trace, traceEntry{id: id, at: at})
		}
	}
	nextID := 0
	id := func() int { nextID++; return nextID }

	// randomAt picks times clustered enough to force equal-time collisions
	// and spread from nanoseconds to tens of seconds ahead.
	randomAt := func(now time.Duration) time.Duration {
		switch rng.Intn(4) {
		case 0: // cluster: collisions at the current millisecond
			return now + time.Duration(rng.Intn(4))*time.Millisecond
		case 1: // near future, up to 2 ms
			return now + time.Duration(rng.Intn(2_000_000))
		case 2: // mid future, up to 4 s
			return now + time.Duration(rng.Intn(4_000_000_000))
		default: // far future, 4-34 s
			return now + time.Duration(4_000_000_000+rng.Intn(30_000_000_000))
		}
	}

	var cancels []func()
	for i := 0; i < 40; i++ {
		switch rng.Intn(6) {
		case 0, 1, 2:
			eid := id()
			at := randomAt(s.Clock().Now())
			nest := rng.Intn(3) == 0
			s.At(at, func(now time.Duration) {
				note(eid)(now)
				if nest {
					// Nested scheduling, sometimes at the callback's own time
					// to exercise same-tick ordering.
					inner := id()
					innerAt := now
					if rng2 := (eid+int(now))%2 == 0; rng2 {
						innerAt += time.Duration(eid%5) * time.Millisecond
					}
					s.At(innerAt, note(inner))
				}
			})
		case 3:
			s.After(time.Duration(rng.Intn(50_000_000)), note(id()))
		case 4:
			period := time.Duration(rng.Intn(20_000_000))
			if rng.Intn(5) == 0 {
				period = 0 // exercise the non-positive no-op contract
			}
			cancels = append(cancels, s.Every(period, note(id())))
		case 5:
			if len(cancels) > 0 {
				k := rng.Intn(len(cancels))
				cancels[k]()
			}
		}
		// Occasionally advance through a partial horizon mid-construction so
		// schedules interleave with execution.
		if rng.Intn(4) == 0 {
			horizon := s.Clock().Now() + time.Duration(rng.Intn(3_000_000_000))
			err := s.Run(horizon)
			trace = append(trace, traceEntry{at: s.Clock().Now(), failed: err != nil})
		}
	}
	for _, c := range cancels {
		c()
	}
	err := s.Run(s.Clock().Now() + 10*time.Second)
	trace = append(trace, traceEntry{id: -1, at: s.Clock().Now(), failed: err != nil, pending: s.Pending()})
	return trace
}

// TestSchedulerZeroAlloc pins the allocation-free contract of the scheduler
// hot path: once the queue has grown to the schedule's working set, At +
// Step reuse its slots and allocate nothing.
func TestSchedulerZeroAlloc(t *testing.T) {
	clock := NewClock(0)
	s := NewScheduler(clock)
	fn := func(time.Duration) {}
	// Warm the queue beyond the steady-state working set.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	for s.Step() {
	}

	allocs := testing.AllocsPerRun(1000, func() {
		s.After(40*time.Millisecond, fn)
		s.After(40*time.Millisecond, fn)
		s.After(200*time.Millisecond, fn)
		s.Step()
		s.Step()
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("scheduler hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSchedulerSlabReuse checks the queue reuses its slots: a sustained
// periodic load, with one-shot events scheduled and dispatched alongside,
// must not grow the queue's capacity beyond its working set.
func TestSchedulerSlabReuse(t *testing.T) {
	s := NewScheduler(NewClock(0))
	fn := func(time.Duration) {}
	s.Every(time.Millisecond, func(time.Duration) {
		s.After(500*time.Microsecond, fn)
		s.After(3*time.Millisecond, fn)
	})
	s.Every(7*time.Millisecond, fn)
	if err := s.Run(50 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	grown := cap(s.queue)
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cap(s.queue) != grown {
		t.Fatalf("queue capacity grew from %d to %d under steady periodic load", grown, cap(s.queue))
	}
}

// TestSchedulerFootprint pins that a scheduler's memory follows its pending
// events rather than a fixed per-scheduler structure: a scheduler taken to a
// 32-event working set and drained retains at most 1 KiB (the header plus a
// 37-slot array, Go's 896 B size class), and allocates at most 2 KiB in
// total, the outgrown 1-16-slot arrays of append's doubling included. The
// drained array must not keep dispatched callbacks alive.
func TestSchedulerFootprint(t *testing.T) {
	const n, working = 1000, 32
	clock := NewClock(0)
	fn := func(time.Duration) {}
	keep := make([]*Scheduler, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		s := NewScheduler(clock)
		for j := 0; j < working; j++ {
			s.After(time.Duration(j)*time.Millisecond, fn)
		}
		for s.Step() {
		}
		keep[i] = s
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 2048 {
		t.Errorf("scheduler with a %d-event working set allocated %d B in total, want <= 2048 B", working, per)
	}
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n; per > 1024 {
		t.Errorf("scheduler with a %d-event working set retains %d B, want <= 1024 B", working, per)
	}
	// Dispatched events leave no callback behind in the reused array.
	for i, e := range keep[0].queue[:cap(keep[0].queue)] {
		if e.fn != nil {
			t.Fatalf("drained queue slot %d still holds a callback", i)
		}
	}
}

func benchScheduler(b *testing.B, s EventScheduler) {
	fn := func(time.Duration) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(40*time.Millisecond, fn)
		s.After(41*time.Millisecond, fn)
		s.After(200*time.Millisecond, fn)
		s.Step()
		s.Step()
		s.Step()
	}
}

func BenchmarkSchedulerWheel(b *testing.B) {
	benchScheduler(b, NewScheduler(NewClock(0)))
}

func BenchmarkSchedulerHeap(b *testing.B) {
	benchScheduler(b, NewHeapScheduler(NewClock(0)))
}
