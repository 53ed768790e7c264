package rf

import (
	"fmt"
	"time"

	"github.com/hcilab/distscroll/internal/sim"
)

// Transport is the device→host channel abstraction: anything that can carry
// one telemetry payload towards the host side. The lossy RF channel model
// (*Link) is the default implementation; *Pipe is an ideal in-process
// channel; real network backends plug in behind the same interface.
//
// Send returns the virtual time at which the transmission completes
// (delivery, or silent loss for lossy transports).
//
// Ownership: the payload belongs to the caller and is only valid for the
// duration of the Send/SendTagged call. A transport that needs the bytes
// later (queueing, retransmission, deferred delivery) must copy them —
// *Pipe and *ARQ do. This lets senders marshal into a reusable scratch
// buffer and transmit allocation-free (see Message.AppendBinary).
type Transport interface {
	Send(payload []byte) (time.Duration, error)
}

// VersionedSender is implemented by transports that can account the payload
// wire-format version the caller passes explicitly, instead of sniffing it
// out of the payload bytes (which an adversarial v0 payload can fool).
type VersionedSender interface {
	SendTagged(payload []byte, ver PayloadVersion) (time.Duration, error)
}

var (
	_ Transport       = (*Link)(nil)
	_ Transport       = (*Pipe)(nil)
	_ Transport       = (*ARQ)(nil)
	_ VersionedSender = (*Link)(nil)
	_ VersionedSender = (*ARQ)(nil)
)

// Pipe is an ideal, lossless Transport: every payload is delivered intact
// to the sink after a fixed latency, driven by the shared scheduler so time
// stays virtual. It isolates host-side behaviour from channel effects in
// fleet scenarios and serves as the template for non-RF backends.
type Pipe struct {
	sched   *sim.Scheduler
	latency time.Duration
	sink    func(payload []byte, at time.Duration)
	stats   LinkStats
}

// NewPipe returns an ideal transport delivering payloads to sink after the
// given latency.
func NewPipe(sched *sim.Scheduler, latency time.Duration, sink func(payload []byte, at time.Duration)) (*Pipe, error) {
	if sched == nil {
		return nil, fmt.Errorf("rf: scheduler is required")
	}
	if sink == nil {
		return nil, fmt.Errorf("rf: sink is required")
	}
	if latency < 0 {
		return nil, fmt.Errorf("rf: negative latency")
	}
	return &Pipe{sched: sched, latency: latency, sink: sink}, nil
}

// Stats returns the channel statistics. A pipe never loses or corrupts, so
// Delivered always tracks Sent once pending deliveries have drained.
func (p *Pipe) Stats() LinkStats { return p.stats }

// Send schedules delivery of one payload.
func (p *Pipe) Send(payload []byte) (time.Duration, error) {
	p.stats.Sent++
	arrive := p.sched.Clock().Now() + p.latency
	cp := append([]byte(nil), payload...)
	p.sched.At(arrive, func(at time.Duration) {
		p.stats.Delivered++
		p.sink(cp, at)
	})
	return arrive, nil
}
