package i2c

import (
	"errors"
	"testing"
	"time"
)

type echoSlave struct {
	written [][]byte
	reply   []byte
	fail    error
}

func (s *echoSlave) WriteBytes(data []byte) error {
	if s.fail != nil {
		return s.fail
	}
	cp := append([]byte(nil), data...)
	s.written = append(s.written, cp)
	return nil
}

func (s *echoSlave) ReadBytes(n int) ([]byte, error) {
	if s.fail != nil {
		return nil, s.fail
	}
	if n > len(s.reply) {
		n = len(s.reply)
	}
	return s.reply[:n], nil
}

func TestAttachAndWrite(t *testing.T) {
	b := NewBus(0)
	s := &echoSlave{}
	if err := b.Attach(0x3C, s); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0x3C, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(s.written) != 1 || len(s.written[0]) != 3 {
		t.Fatalf("slave saw %v", s.written)
	}
}

func TestRead(t *testing.T) {
	b := NewBus(0)
	s := &echoSlave{reply: []byte{9, 8, 7}}
	if err := b.Attach(0x20, s); err != nil {
		t.Fatal(err)
	}
	got, err := b.Read(0x20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 9 {
		t.Fatalf("read %v", got)
	}
}

func TestNack(t *testing.T) {
	b := NewBus(0)
	if err := b.Write(0x10, []byte{1}); !errors.Is(err, ErrNack) {
		t.Fatalf("write to empty address: %v", err)
	}
	if _, err := b.Read(0x10, 1); !errors.Is(err, ErrNack) {
		t.Fatalf("read from empty address: %v", err)
	}
	if b.Stats().Nacks != 2 {
		t.Fatalf("nacks = %d, want 2", b.Stats().Nacks)
	}
}

func TestAddressValidation(t *testing.T) {
	b := NewBus(0)
	s := &echoSlave{}
	if err := b.Attach(0x00, s); !errors.Is(err, ErrInvalidAddress) {
		t.Fatalf("reserved address: %v", err)
	}
	if err := b.Attach(0x78, s); !errors.Is(err, ErrInvalidAddress) {
		t.Fatalf("10-bit range address: %v", err)
	}
	if err := b.Attach(0x3C, s); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(0x3C, &echoSlave{}); !errors.Is(err, ErrAddressInUse) {
		t.Fatalf("duplicate address: %v", err)
	}
}

func TestDetach(t *testing.T) {
	b := NewBus(0)
	if err := b.Attach(0x3C, &echoSlave{}); err != nil {
		t.Fatal(err)
	}
	if !b.Probe(0x3C) {
		t.Fatal("probe after attach failed")
	}
	if err := b.Write(0x3C, []byte{1}); err != nil {
		t.Fatal(err)
	}
	b.Detach(0x3C)
	if b.Probe(0x3C) {
		t.Fatal("probe after detach succeeded")
	}
	if err := b.Write(0x3C, []byte{1}); !errors.Is(err, ErrNack) {
		t.Fatalf("write after detach: %v", err)
	}
	if ops := b.Stats().PerSlaveOps[0x3C]; ops != 1 {
		t.Fatalf("per-slave ops after detach = %d, want 1", ops)
	}
	b.Detach(0x3D) // never attached: a no-op
	if err := b.Attach(0x3C, &echoSlave{}); err != nil {
		t.Fatalf("re-attach after detach: %v", err)
	}
	if !b.Probe(0x3C) || b.Probe(0x3D) {
		t.Fatal("probe after re-attach: want only 0x3c")
	}
}

func TestSlaveErrorWrapped(t *testing.T) {
	b := NewBus(0)
	boom := errors.New("boom")
	if err := b.Attach(0x3C, &echoSlave{fail: boom}); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0x3C, []byte{1}); !errors.Is(err, boom) {
		t.Fatalf("slave error not wrapped: %v", err)
	}
	if _, err := b.Read(0x3C, 1); !errors.Is(err, boom) {
		t.Fatalf("slave read error not wrapped: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	b := NewBus(100_000)
	if err := b.Attach(0x3C, &echoSlave{reply: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0x3C, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(0x3C, 2); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("ops: %+v", st)
	}
	// 3 payload + 1 addr + 2 payload + 1 addr = 7 bytes.
	if st.Bytes != 7 {
		t.Fatalf("bytes = %d, want 7", st.Bytes)
	}
	if st.BusTime <= 0 {
		t.Fatal("bus time not accounted")
	}
	if st.PerSlaveOps[0x3C] != 2 {
		t.Fatalf("per-slave ops: %v", st.PerSlaveOps)
	}
	// Stats must be a copy.
	st.PerSlaveOps[0x3C] = 99
	if b.Stats().PerSlaveOps[0x3C] == 99 {
		t.Fatal("Stats returned internal map")
	}
}

// TestStatsPinned pins every counter after a mixed sequence of writes,
// reads, NACKs and slave errors on two slaves. BusTime is summed per
// transaction in float64 and truncated to a Duration; the expected value is
// that exact arithmetic, not a rounded total.
func TestStatsPinned(t *testing.T) {
	b := NewBus(70_000)
	if err := b.Attach(0x3C, &echoSlave{reply: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(0x3D, &echoSlave{fail: errors.New("busy")}); err != nil {
		t.Fatal(err)
	}
	_ = b.Write(0x3C, []byte{2, 0, 'h', 'i'})
	_, _ = b.Read(0x3C, 3)
	_ = b.Write(0x3D, []byte{1})
	_ = b.Write(0x50, []byte{1, 2})
	_, _ = b.Read(0x3D, 4)
	_, _ = b.Read(0x51, 1)
	_ = b.Write(0x3C, make([]byte, 18))
	got := b.Stats()
	want := Stats{
		Writes:      3,
		Reads:       2,
		Bytes:       5 + 4 + 2 + 5 + 19,
		Nacks:       2,
		BusTime:     4_499_998 * time.Nanosecond, // 4.5 ms summed as five truncated terms
		PerSlaveOps: map[byte]uint64{0x3C: 3, 0x3D: 2},
	}
	if got.Writes != want.Writes || got.Reads != want.Reads || got.Bytes != want.Bytes ||
		got.Nacks != want.Nacks || got.BusTime != want.BusTime {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if len(got.PerSlaveOps) != len(want.PerSlaveOps) {
		t.Fatalf("per-slave ops = %v, want %v", got.PerSlaveOps, want.PerSlaveOps)
	}
	for addr, n := range want.PerSlaveOps {
		if got.PerSlaveOps[addr] != n {
			t.Fatalf("per-slave ops = %v, want %v", got.PerSlaveOps, want.PerSlaveOps)
		}
	}
	if fresh := NewBus(0).Stats(); fresh.PerSlaveOps == nil || len(fresh.PerSlaveOps) != 0 {
		t.Fatalf("fresh bus per-slave ops = %#v, want an empty map", fresh.PerSlaveOps)
	}
}
