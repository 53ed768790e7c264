// Package core assembles the complete DistScroll system: the Smart-Its
// board, the firmware loop, the RF link and the host-side driver that
// decodes telemetry into application events. This is the paper's primary
// contribution wired together — "a self contained interaction device that
// can be wirelessly linked to a PC" (Section 3.2).
//
// The host side is layered for fleets of devices: a Session holds the
// per-device receive state (sequence accounting, event log, handlers), a
// Hub demultiplexes frames from many devices onto their sessions, and Host
// remains the one-device convenience wrapper the rest of the repository
// uses.
package core

import (
	"time"

	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// Event is a host-side application event decoded from device telemetry.
type Event struct {
	Kind rf.MsgKind
	// Device is the sending device's wire id (0 for legacy v0 frames and
	// unconfigured single devices).
	Device uint32
	// Index is the entry index (scroll/select) or depth (level).
	Index int
	// Button is the button id on select events.
	Button byte
	// DeviceTime is the firmware timestamp, HostTime the arrival time.
	DeviceTime time.Duration
	HostTime   time.Duration
	// Voltage and Island carry debug state on MsgState events.
	Voltage float64
	Island  int
}

// HostStats counts host-side receive activity.
type HostStats struct {
	Events    uint64
	Decoded   uint64
	BadFrames uint64
	// MissedSeq counts sequence-number gaps, i.e. frames lost on air.
	MissedSeq uint64
	// Duplicates counts frames that repeated the previous sequence number.
	Duplicates uint64
	// Reordered counts frames arriving with an older sequence number (a
	// wrapping gap of 0x8000 or more), which are late, not lost.
	Reordered uint64
	// Stale, AheadDrops and Resyncs only move in reliable (ARQ) mode:
	// Stale counts retransmit duplicates of already-consumed frames,
	// AheadDrops frames deferred because a predecessor was still in flight,
	// and Resyncs sender-announced skip notices (rf.MsgSkip) admitted past
	// holes the sender permanently abandoned (each admitted skip also adds
	// the hole's width to MissedSeq).
	Stale      uint64
	AheadDrops uint64
	Resyncs    uint64
}

// Host is the PC side of a single-device link: a thin wrapper around one
// Session that decodes payloads and dispatches typed events to registered
// handlers. It accepts frames from any device id — demultiplexing is the
// Hub's job.
type Host struct {
	*Session
}

// NewHostWithMetrics returns a host driver that contributes its receive
// counters and an end-to-end latency histogram to the registry. A nil
// registry yields a plain uninstrumented host. With keepLog set every
// event is retained and retrievable via Events.
func NewHostWithMetrics(keepLog bool, reg *telemetry.Registry) *Host {
	s := NewSession(0, keepLog)
	if reg != nil {
		s.attachMetrics(reg.Histogram(telemetry.MetricHubDispatch, telemetry.DispatchBucketsSec), true)
		reg.RegisterCollector(func(snap *telemetry.Snapshot) {
			var agg HubStats
			agg.add(s.Stats())
			agg.contribute(snap)
			s.collectLatency(snap)
		})
	}
	return &Host{Session: s}
}
