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
	slaves map[byte]Slave
	// clockHz is the bus clock; standard mode is 100 kHz.
	clockHz int
	// stats carries every counter but PerSlaveOps, which Stats builds from
	// perSlave: a transaction only ever reaches an attached address, so a
	// fixed array replaces a map update per transaction.
	stats    Stats
	perSlave [maxAddr + 1]uint64
}

// NewBus returns a bus running at the given clock rate (Hz). A rate <= 0
// selects standard mode (100 kHz).
func NewBus(clockHz int) *Bus {
	if clockHz <= 0 {
		clockHz = 100_000
	}
	return &Bus{
		slaves:  make(map[byte]Slave),
		clockHz: clockHz,
	}
}

// Attach registers a slave at a 7-bit address.
func (b *Bus) Attach(addr byte, s Slave) error {
	if addr > maxAddr || addr < 0x08 {
		return fmt.Errorf("%w: %#x", ErrInvalidAddress, addr)
	}
	if _, ok := b.slaves[addr]; ok {
		return fmt.Errorf("%w: %#x", ErrAddressInUse, addr)
	}
	b.slaves[addr] = s
	return nil
}

// Detach removes the slave at addr, if any.
func (b *Bus) Detach(addr byte) { delete(b.slaves, addr) }

// Addresses returns the number of attached slaves.
func (b *Bus) Addresses() int { return len(b.slaves) }

// Write issues a master→slave write transaction.
func (b *Bus) Write(addr byte, data []byte) error {
	s, ok := b.slaves[addr]
	if !ok {
		b.stats.Nacks++
		return fmt.Errorf("%w: %#x", ErrNack, addr)
	}
	b.stats.Writes++
	b.account(addr, len(data))
	if err := s.WriteBytes(data); err != nil {
		return fmt.Errorf("i2c: write to %#x: %w", addr, err)
	}
	return nil
}

// Read issues a slave→master read transaction of n bytes.
func (b *Bus) Read(addr byte, n int) ([]byte, error) {
	s, ok := b.slaves[addr]
	if !ok {
		b.stats.Nacks++
		return nil, fmt.Errorf("%w: %#x", ErrNack, addr)
	}
	b.stats.Reads++
	b.account(addr, n)
	data, err := s.ReadBytes(n)
	if err != nil {
		return nil, fmt.Errorf("i2c: read from %#x: %w", addr, err)
	}
	return data, nil
}

// Probe reports whether a slave acknowledges the address.
func (b *Bus) Probe(addr byte) bool {
	_, ok := b.slaves[addr]
	return ok
}

// Stats returns a copy of the accumulated bus statistics.
func (b *Bus) Stats() Stats {
	cp := b.stats
	cp.PerSlaveOps = make(map[byte]uint64)
	for addr, ops := range b.perSlave {
		if ops != 0 {
			cp.PerSlaveOps[byte(addr)] = ops
		}
	}
	return cp
}

// account records byte counts and bus occupancy time. Each byte costs nine
// clock cycles (8 data bits + ACK), plus one address byte per transaction.
func (b *Bus) account(addr byte, payload int) {
	bytes := uint64(payload) + 1
	b.stats.Bytes += bytes
	cycles := bytes * 9
	b.stats.BusTime += time.Duration(float64(cycles) / float64(b.clockHz) * float64(time.Second))
	b.perSlave[addr]++
}
