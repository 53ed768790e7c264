package telemetry

import (
	"sync"
	"time"
)

// Reporter periodically snapshots a registry and hands the snapshot to an
// emit callback. It is the process's one telemetry ticker loop: the
// fleet's raw snapshot feed (fleet.Config.ReportEvery) and the history
// store's sampler both run on it, and the SLO watchdog evaluates the
// history store's windows rather than ticking on its own. It runs on wall
// clock (the fleet's virtual clocks are per-device and unordered across
// the fleet), so it reports real observation moments of a concurrent run.
type Reporter struct {
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartReporter begins emitting a snapshot every interval until Stop. A
// final snapshot is always emitted on Stop, so even runs shorter than one
// interval produce a report. Returns nil (a no-op reporter) when the
// registry or emit is nil or the interval is not positive.
func StartReporter(r *Registry, every time.Duration, emit func(*Snapshot)) *Reporter {
	if r == nil || emit == nil || every <= 0 {
		return nil
	}
	rep := &Reporter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rep.done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				emit(r.Snapshot())
			case <-rep.stop:
				emit(r.Snapshot())
				return
			}
		}
	}()
	return rep
}

// Stop halts the reporter after emitting one final snapshot, and waits for
// the emit goroutine to finish so callers can safely read whatever emit
// wrote. Safe to call multiple times and on a nil reporter.
func (r *Reporter) Stop() {
	if r == nil {
		return
	}
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}
