package display

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// refDisplay is the reference model of the panel: the original bool-per-pixel
// framebuffer with the cell-by-cell rasteriser. The bit-packed Display must
// agree with it pixel for pixel; it is kept only as a test oracle.
type refDisplay struct {
	pixels   [HeightPx][WidthPx]bool
	lines    [TextLines]string
	contrast byte
	inverted bool
	frames   uint64
}

func newRef() *refDisplay { return &refDisplay{contrast: 32} }

func (d *refDisplay) WriteBytes(data []byte) error {
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
		if err := d.SetLine(int(rest[0]), string(rest[1:])); err != nil {
			return err
		}
	case CmdContrast:
		if len(rest) < 1 {
			return fmt.Errorf("%w: contrast needs a level", ErrShortCommand)
		}
		d.contrast = min(rest[0], 63)
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
	case CmdStatus: // selects the status read; the oracle models no reads
	default:
		return fmt.Errorf("%w: %#x", ErrBadCommand, op)
	}
	d.frames++
	return nil
}

func (d *refDisplay) Clear() {
	d.pixels = [HeightPx][WidthPx]bool{}
	d.lines = [TextLines]string{}
}

func (d *refDisplay) SetLine(row int, text string) error {
	if row < 0 || row >= TextLines {
		return fmt.Errorf("%w: row %d", ErrBounds, row)
	}
	if len(text) > TextCols {
		text = text[:TextCols]
	}
	d.lines[row] = text
	d.rasterizeLine(row)
	return nil
}

func (d *refDisplay) SetPixel(x, y int, on bool) error {
	if x < 0 || x >= WidthPx || y < 0 || y >= HeightPx {
		return fmt.Errorf("%w: (%d,%d)", ErrBounds, x, y)
	}
	d.pixels[y][x] = on
	return nil
}

func (d *refDisplay) LitPixels() int {
	n := 0
	for y := 0; y < HeightPx; y++ {
		for x := 0; x < WidthPx; x++ {
			if d.pixels[y][x] {
				n++
			}
		}
	}
	return n
}

func (d *refDisplay) rasterizeLine(row int) {
	top := row * GlyphH
	for y := top; y < top+GlyphH && y < HeightPx; y++ {
		for x := 0; x < WidthPx; x++ {
			d.pixels[y][x] = false
		}
	}
	for col, ch := range d.lines[row] {
		if ch == ' ' || col >= TextCols {
			continue
		}
		left := col * GlyphW
		for dy := 1; dy < GlyphH-1; dy++ {
			for dx := 1; dx < GlyphW-1; dx++ {
				y, x := top+dy, left+dx
				if y < HeightPx && x < WidthPx {
					d.pixels[y][x] = true
				}
			}
		}
	}
}

// packed packs the reference framebuffer the way Display stores its own:
// pixel x of row y is bit x&63 of word x>>6.
func (d *refDisplay) packed() (rows [HeightPx][2]uint64) {
	for y := range d.pixels {
		for x, on := range d.pixels[y] {
			if on {
				rows[y][x>>6] |= 1 << (x & 63)
			}
		}
	}
	return rows
}

// samePixelsAsRef is sameAsRef with the framebuffer read pixel by pixel
// through Pixel.
func samePixelsAsRef(d *Display, ref *refDisplay) error {
	for y := 0; y < HeightPx; y++ {
		for x := 0; x < WidthPx; x++ {
			if d.Pixel(x, y) != ref.pixels[y][x] {
				return fmt.Errorf("pixel (%d,%d) = %v, reference %v", x, y, d.Pixel(x, y), ref.pixels[y][x])
			}
		}
	}
	return sameAsRef(d, ref)
}

// sameAsRef reports the first difference between the panel and the
// reference: a packed framebuffer row, the lit count, a text line or a
// register.
func sameAsRef(d *Display, ref *refDisplay) error {
	got, want := d.packedRows(), ref.packed()
	for y := range got {
		if got[y] != want[y] {
			return fmt.Errorf("pixel row %d = %#x, reference %#x", y, got[y], want[y])
		}
	}
	if got, want := d.LitPixels(), ref.LitPixels(); got != want {
		return fmt.Errorf("LitPixels = %d, reference %d", got, want)
	}
	for row := 0; row < TextLines; row++ {
		if d.Line(row) != ref.lines[row] {
			return fmt.Errorf("line %d = %q, reference %q", row, d.Line(row), ref.lines[row])
		}
	}
	if d.Contrast() != ref.contrast || d.Inverted() != ref.inverted || d.Frames() != ref.frames {
		return fmt.Errorf("registers contrast=%d inverted=%v frames=%d, reference %d %v %d",
			d.Contrast(), d.Inverted(), d.Frames(), ref.contrast, ref.inverted, ref.frames)
	}
	return nil
}

// sameErr reports whether two command results are the same error, or both
// nil.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// randomText draws a line from an alphabet that covers spaces, ASCII,
// multi-byte runes and invalid UTF-8, at lengths up to twice the panel
// width.
func randomText(r *rand.Rand) string {
	pieces := []string{" ", "a", "Z", ">", "é", "€", "😀", "\xff", "\xe2\x82", "\x00"}
	n := r.IntN(2*TextCols + 1)
	var b []byte
	for len(b) < n {
		b = append(b, pieces[r.IntN(len(pieces))]...)
	}
	return string(b)
}

func TestPackedMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x96040))
		d, ref := New(), newRef()
		for op := 0; op < 400; op++ {
			var desc string
			var got, want error
			switch k := r.IntN(10); {
			case k < 6:
				row, text := r.IntN(TextLines+2)-1, randomText(r)
				if r.IntN(4) == 0 {
					text = d.Line(row) // rewrite an unchanged line
				}
				desc = fmt.Sprintf("SetLine(%d, %q)", row, text)
				got, want = d.SetLine(row, text), ref.SetLine(row, text)
			case k < 9:
				x, y, on := r.IntN(WidthPx+2)-1, r.IntN(HeightPx+2)-1, r.IntN(2) == 0
				desc = fmt.Sprintf("SetPixel(%d, %d, %v)", x, y, on)
				got, want = d.SetPixel(x, y, on), ref.SetPixel(x, y, on)
			default:
				desc = "Clear()"
				d.Clear()
				ref.Clear()
			}
			if !sameErr(got, want) {
				t.Fatalf("seed %d op %d %s: err %v, reference %v", seed, op, desc, got, want)
			}
			if err := samePixelsAsRef(d, ref); err != nil {
				t.Fatalf("seed %d op %d %s: %v", seed, op, desc, err)
			}
		}
	}
}

// FuzzDisplayWriteBytes drives the panel and the reference with the same
// I2C write transactions. The input is a sequence of length-prefixed
// commands: one length byte, then that many command bytes (modulo 24).
func FuzzDisplayWriteBytes(f *testing.F) {
	f.Add([]byte("\x0c\x02\x00> Messages"))
	f.Add([]byte("\x04\x05\x07\x01\x01\x03\x02\x00A\x01\x01"))
	f.Add([]byte("\x14\x02\x02\xe2\x82\xac\xff abcdefghijklmnop"))
	f.Add([]byte("\x02\x03\xc8\x02\x04\x01\x01\x06\x00\x01\xee"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, ref := New(), newRef()
		for len(data) > 0 {
			n := min(int(data[0])%24, len(data)-1)
			cmd := data[1 : 1+n]
			data = data[1+n:]
			got, want := d.WriteBytes(cmd), ref.WriteBytes(cmd)
			if !sameErr(got, want) {
				t.Fatalf("WriteBytes(%q) = %v, reference %v", cmd, got, want)
			}
			if err := sameAsRef(d, ref); err != nil {
				t.Fatalf("after WriteBytes(%q): %v", cmd, err)
			}
		}
	})
}
