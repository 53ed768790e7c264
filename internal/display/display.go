// Package display models the Barton BT96040 chip-on-glass LCD used twice in
// the DistScroll prototype (paper Section 4.4): 96×40 pixels, five lines of
// text in text mode, driven over the I2C bus, with contrast adjusted by a
// potentiometer.
package display

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// Panel geometry.
const (
	// WidthPx and HeightPx are the pixel dimensions of the panel.
	WidthPx  = 96
	HeightPx = 40
	// TextLines is the number of text rows in text mode (paper: "5 lines
	// in text mode").
	TextLines = 5
	// TextCols is the number of characters per row with the 6×8 font.
	TextCols = WidthPx / 6
	// GlyphW and GlyphH are the font cell dimensions.
	GlyphW = 6
	GlyphH = 8
)

// I2C command opcodes understood by the controller.
const (
	CmdClear    byte = 0x01 // clear the framebuffer
	CmdSetLine  byte = 0x02 // CmdSetLine, row, text... : write a text row
	CmdContrast byte = 0x03 // CmdContrast, level      : set contrast 0..63
	CmdInvert   byte = 0x04 // CmdInvert, 0|1          : invert the panel
	CmdSetPixel byte = 0x05 // CmdSetPixel, x, y, 0|1  : set one pixel
	CmdStatus   byte = 0x06 // select status for the next read
)

// Command errors.
var (
	// ErrBadCommand is returned for an unknown opcode.
	ErrBadCommand = errors.New("display: unknown command")
	// ErrShortCommand is returned when a command is missing operands.
	ErrShortCommand = errors.New("display: short command")
	// ErrBounds is returned for out-of-range coordinates.
	ErrBounds = errors.New("display: out of bounds")
)

// Display is one BT96040 panel. It implements i2c.Slave.
//
// The framebuffer is bit-packed, 320 B per panel: row y is two words, and
// pixel x is bit x&63 of word x>>6 (word 1 uses its low 32 bits). The text
// rows are stored in place (TextCols bytes plus a length each), so writing a
// line never allocates.
//
// The framebuffer is derived lazily from the text. Clear and SetLine only
// store text and mark the row's band stale; a stale band's pixels are its
// text's raster, computed on read by Pixel and LitPixels, and written into
// the framebuffer only when SetPixel draws into the band. Text writes, the
// firmware's whole redraw traffic, therefore never touch the framebuffer.
type Display struct {
	pixels   [HeightPx][2]uint64
	text     [TextLines][TextCols]byte
	textLen  [TextLines]uint8
	stale    uint8 // bit r set: band r is textMask(r), not pixels
	contrast byte
	inverted bool
	frames   uint64 // completed update transactions
	readSel  byte
}

// Init resets d in place to a cleared panel at mid contrast. A board
// holds its displays by value and builds them with Init.
func (d *Display) Init() {
	*d = Display{contrast: 32}
}

// WriteBytes implements the I2C slave write protocol.
func (d *Display) WriteBytes(data []byte) error {
	if len(data) == 0 {
		return ErrShortCommand
	}
	op, rest := data[0], data[1:]
	switch op {
	case CmdClear:
		d.Clear()
	case CmdSetLine:
		if len(rest) < 1 {
			return fmt.Errorf("%w: set-line needs a row", ErrShortCommand)
		}
		if err := setLine(d, int(rest[0]), rest[1:]); err != nil {
			return err
		}
	case CmdContrast:
		if len(rest) < 1 {
			return fmt.Errorf("%w: contrast needs a level", ErrShortCommand)
		}
		d.SetContrast(rest[0])
	case CmdInvert:
		if len(rest) < 1 {
			return fmt.Errorf("%w: invert needs a flag", ErrShortCommand)
		}
		d.inverted = rest[0] != 0
	case CmdSetPixel:
		if len(rest) < 3 {
			return fmt.Errorf("%w: set-pixel needs x,y,v", ErrShortCommand)
		}
		if err := d.SetPixel(int(rest[0]), int(rest[1]), rest[2] != 0); err != nil {
			return err
		}
	case CmdStatus:
		d.readSel = CmdStatus
	default:
		return fmt.Errorf("%w: %#x", ErrBadCommand, op)
	}
	d.frames++
	return nil
}

// ReadBytes implements the I2C slave read protocol. After a CmdStatus write
// it returns [contrast, inverted, lines, cols].
func (d *Display) ReadBytes(n int) ([]byte, error) {
	if d.readSel != CmdStatus {
		return nil, fmt.Errorf("display: no read register selected")
	}
	status := []byte{d.contrast, boolByte(d.inverted), TextLines, TextCols}
	if n > len(status) {
		n = len(status)
	}
	return status[:n], nil
}

// Clear blanks the framebuffer and all text lines.
func (d *Display) Clear() {
	d.pixels = [HeightPx][2]uint64{}
	d.textLen = [TextLines]uint8{}
}

// SetLine writes a text row (truncated to the panel width) and rasterises
// it into the framebuffer with a 6×8 block font. An unchanged row is still
// rasterised: SetPixel may have drawn over its band.
func (d *Display) SetLine(row int, text string) error {
	return setLine(d, row, text)
}

// setLine stores text, cut to TextCols bytes, as row and marks its band
// stale.
func setLine[T string | []byte](d *Display, row int, text T) error {
	if row < 0 || row >= TextLines {
		return fmt.Errorf("%w: row %d", ErrBounds, row)
	}
	d.textLen[row] = uint8(copy(d.text[row][:], text))
	d.stale |= 1 << row
	return nil
}

// Line returns the text of a row, or "" when out of range.
func (d *Display) Line(row int) string {
	if row < 0 || row >= TextLines {
		return ""
	}
	return string(d.row(row))
}

// row is the stored text of a row; it aliases the panel.
func (d *Display) row(i int) []byte { return d.text[i][:d.textLen[i]] }

// Lines returns a copy of all text rows.
func (d *Display) Lines() []string {
	out := make([]string, TextLines)
	for i := range out {
		out[i] = string(d.row(i))
	}
	return out
}

// SetContrast sets the contrast level (clamped to 0..63). On the hardware
// this is the potentiometer next to the add-on board connector.
func (d *Display) SetContrast(level byte) {
	if level > 63 {
		level = 63
	}
	d.contrast = level
}

// Contrast returns the contrast level.
func (d *Display) Contrast() byte { return d.contrast }

// Inverted reports whether the panel is inverted.
func (d *Display) Inverted() bool { return d.inverted }

// Frames reports the number of completed update transactions (every
// WriteBytes that succeeded); tests use it to assert that the firmware only
// redraws on change.
func (d *Display) Frames() uint64 { return d.frames }

// SetPixel sets one framebuffer pixel.
func (d *Display) SetPixel(x, y int, on bool) error {
	if x < 0 || x >= WidthPx || y < 0 || y >= HeightPx {
		return fmt.Errorf("%w: (%d,%d)", ErrBounds, x, y)
	}
	if row := y / GlyphH; d.stale&(1<<row) != 0 {
		d.rasterizeLine(row)
	}
	if on {
		d.pixels[y][x>>6] |= 1 << (x & 63)
	} else {
		d.pixels[y][x>>6] &^= 1 << (x & 63)
	}
	return nil
}

// Pixel reads one framebuffer pixel; out-of-range reads are off.
func (d *Display) Pixel(x, y int) bool {
	if x < 0 || x >= WidthPx || y < 0 || y >= HeightPx {
		return false
	}
	word := d.pixels[y][x>>6]
	if row, dy := y/GlyphH, y%GlyphH; d.stale&(1<<row) != 0 {
		word = 0
		if dy != 0 && dy != GlyphH-1 {
			word = d.textMask(row)[x>>6]
		}
	}
	return word&(1<<(x&63)) != 0
}

// LitPixels counts lit pixels; a cheap proxy for render coverage in tests.
func (d *Display) LitPixels() int {
	n := 0
	for row := 0; row < TextLines; row++ {
		if d.stale&(1<<row) != 0 {
			m := d.textMask(row)
			n += (GlyphH - 2) * (bits.OnesCount64(m[0]) + bits.OnesCount64(m[1]))
			continue
		}
		for _, w := range d.pixels[row*GlyphH : (row+1)*GlyphH] {
			n += bits.OnesCount64(w[0]) + bits.OnesCount64(w[1])
		}
	}
	return n
}

// Render returns a human-readable view of the panel text, framed, as the
// cmd/distscroll-sim tool prints it.
func (d *Display) Render() string {
	var b strings.Builder
	b.WriteString("+" + strings.Repeat("-", TextCols) + "+\n")
	for i := range d.text {
		fmt.Fprintf(&b, "|%-*s|\n", TextCols, d.row(i))
	}
	b.WriteString("+" + strings.Repeat("-", TextCols) + "+")
	return b.String()
}

// glyphMask[col] is the pixel-row mask of text column col: the glyph cell
// interior, x = col·GlyphW+1 … col·GlyphW+GlyphW-2.
var glyphMask = func() (m [TextCols][2]uint64) {
	for col := range m {
		for dx := 1; dx < GlyphW-1; dx++ {
			x := col*GlyphW + dx
			m[col][x>>6] |= 1 << (x & 63)
		}
	}
	return m
}()

// allBands marks every text band stale.
const allBands = 1<<TextLines - 1

// textMask is the pixel-row mask of the row's text, which lights the glyph
// rows 1 … GlyphH-2 of its band. The font is a simplified block font: any
// non-space character lights the glyph cell interior, which is enough for
// coverage-style assertions. A rune lights the cell at its byte offset, so
// a multi-byte rune lights one cell.
func (d *Display) textMask(row int) (mask [2]uint64) {
	for col, ch := range string(d.row(row)) {
		if ch != ' ' {
			mask[0] |= glyphMask[col][0]
			mask[1] |= glyphMask[col][1]
		}
	}
	return mask
}

// rasterizeLine writes the row's text raster into its band and clears the
// band's stale mark, so SetPixel can draw over it.
func (d *Display) rasterizeLine(row int) {
	d.stale &^= 1 << row
	mask := d.textMask(row)
	band := d.pixels[row*GlyphH : (row+1)*GlyphH]
	band[0] = [2]uint64{}
	for dy := 1; dy < GlyphH-1; dy++ {
		band[dy] = mask
	}
	band[GlyphH-1] = [2]uint64{}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
