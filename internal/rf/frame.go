// Package rf models the wireless link between the self-contained DistScroll
// device and a PC. The paper's research approach (Section 3.2) chose a
// "self contained interaction device that can be wirelessly linked to a PC";
// this package provides the framing, integrity checking and channel model
// for that link, plus the telemetry messages the firmware emits.
package rf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame format:
//
//	0xAA 0x55  sync
//	len        payload length (1 byte, <= MaxPayload)
//	payload    len bytes
//	crc        CRC-16/CCITT-FALSE over len+payload, big endian
const (
	sync0 = 0xAA
	sync1 = 0x55
	// MaxPayload is the largest payload a frame can carry.
	MaxPayload = 255
	// Overhead is the per-frame byte overhead (sync + len + crc).
	Overhead = 5
	// maxFrame is the largest complete frame on the wire.
	maxFrame = MaxPayload + Overhead
)

// Framing errors.
var (
	// ErrPayloadTooLarge is returned when encoding an oversized payload.
	ErrPayloadTooLarge = errors.New("rf: payload too large")
	// ErrBadCRC is surfaced in decoder statistics when a frame fails its
	// integrity check.
	ErrBadCRC = errors.New("rf: bad crc")
)

// crcTable holds the slicing-by-8 lookup tables for CRC-16/CCITT-FALSE.
// crcTable[0][i] is the CRC state transition for a high byte of i, the
// byte-at-a-time table; crcTable[k][i] is that byte's contribution once k
// more bytes have followed it. CRC16 folds eight bytes per step with eight
// independent loads. Over a 25-byte frame body that takes ~19 ns, against
// ~46 ns byte by byte and ~300 ns bit by bit (BenchmarkCRC16, medians of
// six, 2-vCPU Intel Xeon): the CRC is the frame codec's largest cost on
// both the device encode and the gateway decode.
var crcTable = func() (t [8][256]uint16) {
	for i := range t[0] {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[0][i] = crc
	}
	for k := 1; k < len(t); k++ {
		for i, prev := range t[k-1] {
			t[k][i] = prev<<8 ^ t[0][prev>>8]
		}
	}
	return t
}()

// CRC16 computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), eight
// bytes per step through the sliced tables and the last len%8 bytes one at
// a time. TestCRC16TableMatchesBitwise pins it against a bit-at-a-time
// oracle over known vectors, every single-byte input, every length up to
// 64 and randomized buffers.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for ; len(data) >= 8; data = data[8:] {
		crc = crcTable[7][data[0]^byte(crc>>8)] ^ crcTable[6][data[1]^byte(crc)] ^
			crcTable[5][data[2]] ^ crcTable[4][data[3]] ^
			crcTable[3][data[4]] ^ crcTable[2][data[5]] ^
			crcTable[1][data[6]] ^ crcTable[0][data[7]]
	}
	for _, b := range data {
		crc = crc<<8 ^ crcTable[0][byte(crc>>8)^b]
	}
	return crc
}

// AppendEncode appends the framed payload to dst and returns the extended
// slice. It is the allocation-free sibling of Encode: a transmitter that
// keeps a per-device scratch buffer (`buf = AppendEncode(buf[:0], p)`) pays
// nothing per frame once the buffer has warmed up. On error dst is returned
// unchanged.
func AppendEncode(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, len(payload))
	}
	base := len(dst)
	dst = append(dst, sync0, sync1, byte(len(payload)))
	dst = append(dst, payload...)
	crc := CRC16(dst[base+2:]) // over len + payload
	return binary.BigEndian.AppendUint16(dst, crc), nil
}

// Encode wraps a payload into a freshly allocated frame.
func Encode(payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, len(payload))
	}
	frame, err := AppendEncode(make([]byte, 0, len(payload)+Overhead), payload)
	if err != nil {
		return nil, err
	}
	return frame, nil
}

// DecoderStats counts decoder outcomes.
type DecoderStats struct {
	Frames    uint64 // good frames delivered
	CRCErrors uint64
	Resyncs   uint64 // bytes skipped hunting for sync
}

// Decoder is an incremental frame decoder: feed it bytes in any chunking
// and it emits complete, CRC-verified payloads. Corrupt frames are dropped
// and the decoder re-synchronises on the next sync pattern.
//
// The internal buffer is a reusable scratch: leftover bytes are compacted to
// the front of the backing array after every feed, so its capacity is
// bounded by one maximum frame plus the largest chunk ever fed, and the
// steady state allocates nothing.
type Decoder struct {
	buf   []byte // unscanned bytes; always starts at the backing array front
	stats DecoderStats
}

// NewDecoder returns an empty decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// Stats returns the decoder statistics.
func (d *Decoder) Stats() DecoderStats { return d.stats }

// Buffered reports how many unconsumed bytes the decoder is holding — the
// tail of a frame split across reads. Network ingest paths use it to count
// short reads (reads that ended mid-frame).
func (d *Decoder) Buffered() int { return len(d.buf) }

// Feed consumes raw link bytes and returns any complete payloads. Every
// returned payload is a stable copy owned by the caller: it never aliases
// the decoder's internal buffer and survives any number of further feeds.
// Hot paths that can live with the stricter aliasing contract should use
// FeedFunc, which skips the copies.
func (d *Decoder) Feed(data []byte) [][]byte {
	var out [][]byte
	d.FeedFunc(data, func(p []byte) {
		out = append(out, append([]byte(nil), p...))
	})
	return out
}

// FeedFunc consumes raw link bytes and invokes fn once per complete,
// CRC-verified payload, in stream order. It is the zero-allocation receive
// path: the payload slice aliases the decoder's internal scratch buffer and
// is only valid for the duration of the callback — fn must fully consume or
// copy it before returning, and must not feed this decoder reentrantly.
// Use Feed to receive stable copies instead.
func (d *Decoder) FeedFunc(data []byte, fn func(payload []byte)) {
	d.buf = append(d.buf, data...)
	pos := 0 // scan cursor; bytes before pos are consumed
	for {
		// Hunt for sync.
		start := -1
		for i := pos; i+1 < len(d.buf); i++ {
			if d.buf[i] == sync0 && d.buf[i+1] == sync1 {
				start = i
				break
			}
		}
		if start < 0 {
			// Drop everything except at most one trailing byte (a possible
			// first sync byte).
			if n := len(d.buf); n-pos > 1 {
				d.stats.Resyncs += uint64(n - 1 - pos)
				pos = n - 1
			}
			break
		}
		if start > pos {
			d.stats.Resyncs += uint64(start - pos)
			pos = start
		}
		if len(d.buf)-pos < 3 {
			break
		}
		n := int(d.buf[pos+2])
		total := 3 + n + 2
		if len(d.buf)-pos < total {
			break
		}
		body := d.buf[pos+2 : pos+3+n]
		wantCRC := binary.BigEndian.Uint16(d.buf[pos+3+n : pos+total])
		if CRC16(body) != wantCRC {
			d.stats.CRCErrors++
			// Skip the bogus sync and rescan.
			pos += 2
			continue
		}
		d.stats.Frames++
		fn(d.buf[pos+3 : pos+3+n : pos+3+n])
		pos += total
	}
	// Compact: slide the unconsumed tail to the front so the backing array
	// is reused on the next feed instead of growing without bound.
	if pos > 0 {
		n := copy(d.buf, d.buf[pos:])
		d.buf = d.buf[:n]
	}
}
