// Package i2c simulates the inter-integrated-circuit bus that connects the
// Smart-Its add-on board to the two Barton BT96040 chip-on-glass displays
// (paper Section 4.4: "They are connected to the Smart-Its via the
// I2C-bus").
//
// The model is transaction-level: a master issues write and read
// transactions against 7-bit addresses; slaves either acknowledge and
// process the bytes or the transaction fails with ErrNack. Timing is
// accounted per transferred byte so firmware-cycle costs are realistic.
package i2c

import (
	"errors"
	"fmt"
	"time"
)

// Bus errors.
var (
	// ErrNack is returned when no slave acknowledges the address.
	ErrNack = errors.New("i2c: address not acknowledged")
	// ErrAddressInUse is returned when attaching a second slave at an
	// occupied address.
	ErrAddressInUse = errors.New("i2c: address already in use")
	// ErrInvalidAddress is returned for addresses outside the 7-bit range
	// or inside the reserved ranges.
	ErrInvalidAddress = errors.New("i2c: invalid 7-bit address")
)

// Slave is a device attached to the bus.
type Slave interface {
	// WriteBytes delivers a master→slave write transaction payload.
	WriteBytes(data []byte) error
	// ReadBytes serves a slave→master read of n bytes.
	ReadBytes(n int) ([]byte, error)
}

// Stats counts bus activity.
type Stats struct {
	Writes      uint64
	Reads       uint64
	Bytes       uint64
	Nacks       uint64
	BusTime     time.Duration
	PerSlaveOps map[byte]uint64
}

// maxAddr bounds the 7-bit addresses Attach accepts (0x08..0x77).
const maxAddr = 0x77

// Bus is a single-master I2C bus.
type Bus struct {
	// slaves holds one entry per address ever attached, in attach order. A
	// board carries a handful of slaves, so a scan beats hashing, and the
	// bus stays a few dozen bytes where a table indexed by address would
	// cost every device a kilobyte or more.
	slaves []attachment
	// clockHz is the bus clock; standard mode is 100 kHz.
	clockHz int
	// stats carries every counter but PerSlaveOps, which Stats builds from
	// the entries' ops.
	stats Stats
	// inline backs slaves up to the two displays of a board, so attaching
	// them costs the bus no allocation. slaves points into it, so a Bus
	// must not be copied once built.
	inline [2]attachment
}

// attachment is one address on the bus. Detach clears slave but keeps the
// entry, so the address's transaction count survives into Stats.
type attachment struct {
	addr  byte
	slave Slave
	ops   uint64
}

// Init resets b in place to an empty bus running at the given clock rate
// (Hz). A rate <= 0 selects standard mode (100 kHz). A board holds its Bus
// by value and builds it with Init.
func (b *Bus) Init(clockHz int) {
	if clockHz <= 0 {
		clockHz = 100_000
	}
	*b = Bus{clockHz: clockHz}
	b.slaves = b.inline[:0]
}

// entry returns the bus entry for addr, or nil if none was ever attached.
func (b *Bus) entry(addr byte) *attachment {
	for i := range b.slaves {
		if b.slaves[i].addr == addr {
			return &b.slaves[i]
		}
	}
	return nil
}

// slave returns the entry of the slave attached at addr, or nil.
func (b *Bus) slave(addr byte) *attachment {
	if e := b.entry(addr); e != nil && e.slave != nil {
		return e
	}
	return nil
}

// Attach registers a slave at a 7-bit address.
func (b *Bus) Attach(addr byte, s Slave) error {
	if addr > maxAddr || addr < 0x08 {
		return fmt.Errorf("%w: %#x", ErrInvalidAddress, addr)
	}
	e := b.entry(addr)
	if e == nil {
		b.slaves = append(b.slaves, attachment{addr: addr, slave: s})
		return nil
	}
	if e.slave != nil {
		return fmt.Errorf("%w: %#x", ErrAddressInUse, addr)
	}
	e.slave = s
	return nil
}

// Detach removes the slave at addr, if any.
func (b *Bus) Detach(addr byte) {
	if e := b.entry(addr); e != nil {
		e.slave = nil
	}
}

// Write issues a master→slave write transaction.
func (b *Bus) Write(addr byte, data []byte) error {
	e := b.slave(addr)
	if e == nil {
		b.stats.Nacks++
		return fmt.Errorf("%w: %#x", ErrNack, addr)
	}
	b.stats.Writes++
	b.account(e, len(data))
	if err := e.slave.WriteBytes(data); err != nil {
		return fmt.Errorf("i2c: write to %#x: %w", addr, err)
	}
	return nil
}

// Read issues a slave→master read transaction of n bytes.
func (b *Bus) Read(addr byte, n int) ([]byte, error) {
	e := b.slave(addr)
	if e == nil {
		b.stats.Nacks++
		return nil, fmt.Errorf("%w: %#x", ErrNack, addr)
	}
	b.stats.Reads++
	b.account(e, n)
	data, err := e.slave.ReadBytes(n)
	if err != nil {
		return nil, fmt.Errorf("i2c: read from %#x: %w", addr, err)
	}
	return data, nil
}

// Probe reports whether a slave acknowledges the address.
func (b *Bus) Probe(addr byte) bool { return b.slave(addr) != nil }

// Stats returns a copy of the accumulated bus statistics.
func (b *Bus) Stats() Stats {
	cp := b.stats
	cp.PerSlaveOps = make(map[byte]uint64)
	for _, e := range b.slaves {
		if e.ops != 0 {
			cp.PerSlaveOps[e.addr] = e.ops
		}
	}
	return cp
}

// account records byte counts and bus occupancy time. Each byte costs nine
// clock cycles (8 data bits + ACK), plus one address byte per transaction.
func (b *Bus) account(e *attachment, payload int) {
	bytes := uint64(payload) + 1
	b.stats.Bytes += bytes
	cycles := bytes * 9
	b.stats.BusTime += time.Duration(float64(cycles) / float64(b.clockHz) * float64(time.Second))
	e.ops++
}
