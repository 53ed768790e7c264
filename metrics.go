package distscroll

import (
	"errors"
	"io"

	"github.com/hcilab/distscroll/internal/telemetry"
)

// MetricsSnapshot is a point-in-time copy of every counter, gauge and
// histogram a run has recorded: per-layer frame counters (firmware, rf
// link, hub), the aggregate end-to-end latency histogram over every device
// and per-device ones for the first 64 devices, with p50/p90/p99, and
// hub-level gauges. It marshals to JSON.
type MetricsSnapshot = telemetry.Snapshot

// HistogramSnapshot is one latency distribution inside a MetricsSnapshot.
type HistogramSnapshot = telemetry.HistogramSnapshot

// Metrics collects telemetry from every layer of one or more devices.
// Attach it with WithMetrics; the same handle may instrument a whole
// fleet. Collection is pull-based: the simulation pays (almost) nothing
// until Snapshot is called, and recorded behaviour is identical with or
// without metrics attached.
type Metrics struct {
	reg *telemetry.Registry
}

// NewMetrics returns an empty metrics collector.
func NewMetrics() *Metrics { return &Metrics{reg: telemetry.New()} }

// Snapshot captures the current state of every instrument.
func (m *Metrics) Snapshot() *MetricsSnapshot {
	if m == nil {
		return telemetry.NewSnapshot()
	}
	return m.reg.Snapshot()
}

// WriteJSON writes the current snapshot as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	return m.Snapshot().WriteJSON(w)
}

// WritePrometheus writes the current snapshot in the Prometheus text
// exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	return m.Snapshot().WritePrometheus(w)
}

// WithMetrics instruments the device (or every device of a fleet) with the
// given collector: firmware cycle/event counters, RF link loss accounting
// and host-side receive counters plus an end-to-end latency histogram per
// device.
func WithMetrics(m *Metrics) Option {
	return func(c *config) error {
		if m == nil {
			return errors.New("distscroll: nil metrics (use NewMetrics)")
		}
		c.core.Metrics = m.reg
		return nil
	}
}
