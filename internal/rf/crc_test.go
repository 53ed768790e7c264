package rf

import (
	"math/rand"
	"testing"
)

// TestCRC16TableMatchesBitwise pins the table-driven CRC16 byte-identical
// to the bit-at-a-time reference over known vectors, every single-byte
// input, every length from 0 to 64 (each split into 8-byte blocks and a
// byte-wise tail), and randomized buffers up to a full frame. The wire format cannot
// tolerate even one diverging polynomial step: a mismatch would make every
// frame encoded by one implementation fail the other's integrity check.
func TestCRC16TableMatchesBitwise(t *testing.T) {
	// CRC-16/CCITT-FALSE check value: "123456789" -> 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16(check vector) = %#04x, want 0x29b1", got)
	}
	if got := crc16Bitwise([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("crc16Bitwise(check vector) = %#04x, want 0x29b1", got)
	}
	if got, want := CRC16(nil), crc16Bitwise(nil); got != want {
		t.Fatalf("empty input: table %#04x, bitwise %#04x", got, want)
	}
	for b := 0; b < 256; b++ {
		in := []byte{byte(b)}
		if got, want := CRC16(in), crc16Bitwise(in); got != want {
			t.Fatalf("single byte %#02x: table %#04x, bitwise %#04x", b, got, want)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 64; n++ {
		buf := make([]byte, n)
		for trial := 0; trial < 8; trial++ {
			rng.Read(buf)
			if got, want := CRC16(buf), crc16Bitwise(buf); got != want {
				t.Fatalf("length %d trial %d: table %#04x, bitwise %#04x", n, trial, got, want)
			}
		}
	}
	for trial := 0; trial < 500; trial++ {
		buf := make([]byte, 1+rng.Intn(maxFrame))
		rng.Read(buf)
		if got, want := CRC16(buf), crc16Bitwise(buf); got != want {
			t.Fatalf("trial %d (%d bytes): table %#04x, bitwise %#04x", trial, len(buf), got, want)
		}
	}
}

// TestCRC16RejectsEveryBitFlip checks the integrity property end to end on
// the fast path: any single-bit corruption of a framed payload must change
// the CRC (CCITT-FALSE detects all single-bit errors).
func TestCRC16RejectsEveryBitFlip(t *testing.T) {
	body := []byte{16, 0xD1, 0, 0, 0, 9, 0, 7, 0, 0, 4, 0xD2, 0, 3, 0, 1, 2}
	want := CRC16(body)
	for i := range body {
		for bit := 0; bit < 8; bit++ {
			body[i] ^= 1 << bit
			if CRC16(body) == want {
				t.Fatalf("bit flip at byte %d bit %d not detected", i, bit)
			}
			body[i] ^= 1 << bit
		}
	}
}

var crcSink uint16

// BenchmarkCRC16 times the slicing-by-8 CRC against the bitwise oracle
// over a 25-byte frame body: three 8-byte blocks and a one-byte tail.
func BenchmarkCRC16(b *testing.B) {
	body := make([]byte, 25)
	for _, bc := range []struct {
		name string
		crc  func([]byte) uint16
	}{{"table", CRC16}, {"bitwise", crc16Bitwise}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				crcSink = bc.crc(body)
			}
		})
	}
}

// crc16Bitwise is the bit-at-a-time reference implementation of
// CRC-16/CCITT-FALSE, the codec every earlier revision of this package
// shipped. It is the differential-test oracle for the table-driven CRC16.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}
