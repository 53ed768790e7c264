package rf

import (
	"time"

	"github.com/hcilab/distscroll/internal/sim"
)

// NewARQ allocates a reliable sender and builds it with Init. Devices
// hold their ARQ by value, so only tests build one on its own.
func NewARQ(cfg ARQConfig, sched *sim.Scheduler, rng *sim.Rand, tx Transport) (*ARQ, error) {
	a := new(ARQ)
	if err := a.Init(cfg, sched, rng, tx); err != nil {
		return nil, err
	}
	return a, nil
}

// NewReverseLink allocates an ack back-channel and builds it with Init.
// Devices hold their ReverseLink by value, so only tests build one on its
// own.
func NewReverseLink(cfg LinkConfig, sched *sim.Scheduler, rng *sim.Rand, sink func(payload []byte, at time.Duration)) (*ReverseLink, error) {
	r := new(ReverseLink)
	if err := r.Init(cfg, sched, rng, sink); err != nil {
		return nil, err
	}
	return r, nil
}
