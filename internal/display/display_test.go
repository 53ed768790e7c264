package display

import (
	"errors"
	"strings"
	"testing"
)

func TestSetLineAndRender(t *testing.T) {
	d := New()
	if err := d.SetLine(0, "> Messages"); err != nil {
		t.Fatal(err)
	}
	if err := d.SetLine(1, "  Contacts"); err != nil {
		t.Fatal(err)
	}
	out := d.Render()
	if !strings.Contains(out, "> Messages") || !strings.Contains(out, "  Contacts") {
		t.Fatalf("render:\n%s", out)
	}
	if d.Line(0) != "> Messages" {
		t.Fatalf("Line(0) = %q", d.Line(0))
	}
}

func TestSetLineTruncatesToPanelWidth(t *testing.T) {
	d := New()
	long := strings.Repeat("x", TextCols+10)
	if err := d.SetLine(2, long); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Line(2)); got != TextCols {
		t.Fatalf("line length = %d, want %d", got, TextCols)
	}
}

func TestSetLineBounds(t *testing.T) {
	d := New()
	if err := d.SetLine(-1, "x"); !errors.Is(err, ErrBounds) {
		t.Fatalf("row -1: %v", err)
	}
	if err := d.SetLine(TextLines, "x"); !errors.Is(err, ErrBounds) {
		t.Fatalf("row %d: %v", TextLines, err)
	}
	if d.Line(99) != "" {
		t.Fatal("out-of-range Line should be empty")
	}
}

func TestRasterisationLightsPixels(t *testing.T) {
	d := New()
	if d.LitPixels() != 0 {
		t.Fatal("fresh panel should be dark")
	}
	if err := d.SetLine(0, "AB"); err != nil {
		t.Fatal(err)
	}
	lit := d.LitPixels()
	if lit == 0 {
		t.Fatal("text did not light pixels")
	}
	// Spaces light nothing extra.
	if err := d.SetLine(1, "   "); err != nil {
		t.Fatal(err)
	}
	if d.LitPixels() != lit {
		t.Fatal("spaces lit pixels")
	}
	// Overwriting with blank clears the band.
	if err := d.SetLine(0, ""); err != nil {
		t.Fatal(err)
	}
	if d.LitPixels() != 0 {
		t.Fatal("clearing a line left pixels lit")
	}
}

func TestClear(t *testing.T) {
	d := New()
	if err := d.SetLine(0, "hello"); err != nil {
		t.Fatal(err)
	}
	d.Clear()
	if d.LitPixels() != 0 || d.Line(0) != "" {
		t.Fatal("Clear left state behind")
	}
}

func TestI2CProtocol(t *testing.T) {
	d := New()
	// Set a line through the wire protocol.
	cmd := append([]byte{CmdSetLine, 1}, "Inbox"...)
	if err := d.WriteBytes(cmd); err != nil {
		t.Fatal(err)
	}
	if d.Line(1) != "Inbox" {
		t.Fatalf("Line(1) = %q", d.Line(1))
	}
	// Contrast.
	if err := d.WriteBytes([]byte{CmdContrast, 50}); err != nil {
		t.Fatal(err)
	}
	if d.Contrast() != 50 {
		t.Fatalf("contrast = %d", d.Contrast())
	}
	// Invert.
	if err := d.WriteBytes([]byte{CmdInvert, 1}); err != nil {
		t.Fatal(err)
	}
	if !d.Inverted() {
		t.Fatal("invert failed")
	}
	// Pixel.
	if err := d.WriteBytes([]byte{CmdSetPixel, 10, 10, 1}); err != nil {
		t.Fatal(err)
	}
	if !d.Pixel(10, 10) {
		t.Fatal("pixel not set")
	}
	// Clear.
	if err := d.WriteBytes([]byte{CmdClear}); err != nil {
		t.Fatal(err)
	}
	if d.Line(1) != "" {
		t.Fatal("clear over wire failed")
	}
}

func TestI2CProtocolErrors(t *testing.T) {
	d := New()
	if err := d.WriteBytes(nil); !errors.Is(err, ErrShortCommand) {
		t.Fatalf("empty write: %v", err)
	}
	if err := d.WriteBytes([]byte{0xEE}); !errors.Is(err, ErrBadCommand) {
		t.Fatalf("bad opcode: %v", err)
	}
	if err := d.WriteBytes([]byte{CmdSetLine}); !errors.Is(err, ErrShortCommand) {
		t.Fatalf("short set-line: %v", err)
	}
	if err := d.WriteBytes([]byte{CmdSetPixel, 200, 0, 1}); !errors.Is(err, ErrBounds) {
		t.Fatalf("pixel out of bounds: %v", err)
	}
	if _, err := d.ReadBytes(1); err == nil {
		t.Fatal("read without register select should fail")
	}
}

func TestStatusRead(t *testing.T) {
	d := New()
	d.SetContrast(40)
	if err := d.WriteBytes([]byte{CmdStatus}); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadBytes(4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 40 || got[2] != TextLines || got[3] != TextCols {
		t.Fatalf("status = %v", got)
	}
}

func TestContrastClamp(t *testing.T) {
	d := New()
	d.SetContrast(200)
	if d.Contrast() != 63 {
		t.Fatalf("contrast = %d, want clamped 63", d.Contrast())
	}
}

func TestFramesCounter(t *testing.T) {
	d := New()
	ok := [][]byte{
		{CmdClear},
		append([]byte{CmdSetLine, 0}, "Inbox"...),
		{CmdSetPixel, 3, 4, 1},
		{CmdContrast, 40},
		{CmdInvert, 0},
		{CmdStatus},
	}
	for i, cmd := range ok {
		if err := d.WriteBytes(cmd); err != nil {
			t.Fatalf("%x: %v", cmd, err)
		}
		if got := d.Frames(); got != uint64(i+1) {
			t.Fatalf("after %x: frames = %d, want %d", cmd, got, i+1)
		}
	}
	rejected := [][]byte{
		nil,
		{0xEE},
		{CmdSetLine},
		{CmdSetLine, TextLines, 'x'},
		{CmdSetPixel, 1, 2},
		{CmdSetPixel, WidthPx, 0, 1},
	}
	for _, cmd := range rejected {
		if err := d.WriteBytes(cmd); err == nil {
			t.Fatalf("%x: accepted", cmd)
		}
	}
	if got := d.Frames(); got != uint64(len(ok)) {
		t.Fatalf("rejected writes counted: frames = %d, want %d", got, len(ok))
	}
}

func TestDisplaySetLineUnchangedZeroAlloc(t *testing.T) {
	d := New()
	cmd := append([]byte{CmdSetLine, 2}, "> Messages"...)
	if err := d.WriteBytes(cmd); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.WriteBytes(cmd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rewriting an unchanged line allocates %.1f times", allocs)
	}
}

// TestDisplaySetLineChangedZeroAlloc pins the debug panel's redraw: rows
// are stored in place, so writing changed text to a row allocates nothing.
func TestDisplaySetLineChangedZeroAlloc(t *testing.T) {
	d := New()
	cmds := [][]byte{
		append([]byte{CmdSetLine, 1}, "V=1.234"...),
		append([]byte{CmdSetLine, 1}, "V=0.987 longer than the panel"...),
		append([]byte{CmdSetLine, 1}, "isle=no-meas"...),
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i = (i + 1) % len(cmds)
		if err := d.WriteBytes(cmds[i]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("writing a changed line allocates %.1f times", allocs)
	}
	if got, want := d.Line(1), string(cmds[i][2:min(len(cmds[i]), 2+TextCols)]); got != want {
		t.Fatalf("line 1 = %q, want %q", got, want)
	}
}

func TestPixelBounds(t *testing.T) {
	d := New()
	if err := d.SetPixel(WidthPx, 0, true); !errors.Is(err, ErrBounds) {
		t.Fatalf("x out of bounds: %v", err)
	}
	if d.Pixel(-1, -1) {
		t.Fatal("out-of-range pixel read true")
	}
}

func TestRenderShape(t *testing.T) {
	d := New()
	out := d.Render()
	lines := strings.Split(out, "\n")
	if len(lines) != TextLines+2 {
		t.Fatalf("render has %d lines, want %d", len(lines), TextLines+2)
	}
	for _, l := range lines[1 : TextLines+1] {
		if len(l) != TextCols+2 {
			t.Fatalf("row width %d, want %d: %q", len(l), TextCols+2, l)
		}
	}
}

// TestLazyRaster covers the lazily derived framebuffer against the eager
// reference: text writes only mark a band stale, reads derive it without
// storing anything, and SetPixel rasterises the band before drawing.
func TestLazyRaster(t *testing.T) {
	// run applies the same steps to the panel and the reference and
	// compares them after each one.
	run := func(t *testing.T, steps ...func(d *Display, ref *refDisplay)) *Display {
		t.Helper()
		d, ref := New(), newRef()
		for i, step := range steps {
			step(d, ref)
			if err := samePixelsAsRef(d, ref); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		return d
	}
	setLine := func(row int, text string) func(*Display, *refDisplay) {
		return func(d *Display, ref *refDisplay) {
			if err := d.SetLine(row, text); err != nil {
				t.Fatal(err)
			}
			_ = ref.SetLine(row, text)
		}
	}
	setPixel := func(x, y int, on bool) func(*Display, *refDisplay) {
		return func(d *Display, ref *refDisplay) {
			if err := d.SetPixel(x, y, on); err != nil {
				t.Fatal(err)
			}
			_ = ref.SetPixel(x, y, on)
		}
	}
	clearAll := func(d *Display, ref *refDisplay) { d.Clear(); ref.Clear() }

	t.Run("SetPixelAfterSetLine", func(t *testing.T) {
		d := run(t, setLine(1, "AB C"),
			setPixel(2, 9, false), // glyph interior of 'A': turned off
			setPixel(0, 8, true),  // band's blank top row
			setPixel(20, 12, true),
			setLine(1, "AB C"), // redraw wipes the drawing
			setPixel(95, 15, true))
		if d.stale&(1<<1) != 0 {
			t.Fatal("band 1 still stale after SetPixel")
		}
	})
	t.Run("SetPixelAfterClear", func(t *testing.T) {
		run(t, setLine(0, "hello"), setLine(4, "world"), setPixel(3, 3, false),
			clearAll, setPixel(3, 3, true), setPixel(50, 37, true), setLine(4, "x"))
	})
	t.Run("ReadsOnStaleRow", func(t *testing.T) {
		d := run(t, setPixel(10, 18, true), setLine(2, "> Messages"))
		if d.stale&(1<<2) == 0 {
			t.Fatal("SetLine did not mark band 2 stale")
		}
		before := *d
		for y := 2 * GlyphH; y < 3*GlyphH; y++ {
			for x := 0; x < WidthPx; x++ {
				d.Pixel(x, y)
			}
		}
		if lit, want := d.LitPixels(), 9*(GlyphW-2)*(GlyphH-2); lit != want {
			t.Fatalf("LitPixels = %d, want %d", lit, want)
		}
		if *d != before {
			t.Fatal("Pixel or LitPixels mutated the panel")
		}
	})
	t.Run("MultiByteRunes", func(t *testing.T) {
		// "é" and "€" light one cell each, at their byte offsets 0 and 3;
		// the invalid byte at 6 lights a cell too.
		d := run(t, setLine(3, "é €\xff"), setPixel(1, 3*GlyphH+1, true), setLine(0, "😀😀😀😀x"))
		for _, col := range []int{0, 3, 6} {
			if !d.Pixel(col*GlyphW+1, 3*GlyphH+1) {
				t.Fatalf("cell %d of row 3 is dark", col)
			}
		}
	})
	t.Run("RenderReadsText", func(t *testing.T) {
		d := New()
		if err := d.SetLine(0, "Inbox"); err != nil {
			t.Fatal(err)
		}
		want := d.Render()
		for x := 0; x < WidthPx; x++ {
			if err := d.SetPixel(x, 3, x%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.Render(); got != want {
			t.Fatalf("drawing changed Render:\n%s\nwant\n%s", got, want)
		}
		if !strings.HasPrefix(strings.Split(want, "\n")[1], "|Inbox           |") {
			t.Fatalf("render:\n%s", want)
		}
	})
}
