package display

// packedRows returns the framebuffer as Pixel reads it, in the packed
// layout: a stale band is derived from its text exactly as Pixel derives
// it, zero on the band's first and last pixel rows and the text's mask on
// the rows between.
func (d *Display) packedRows() [HeightPx][2]uint64 {
	rows := d.pixels
	for row := 0; row < TextLines; row++ {
		if d.stale&(1<<row) == 0 {
			continue
		}
		mask := d.textMask(row)
		for dy := 0; dy < GlyphH; dy++ {
			var w [2]uint64
			if dy != 0 && dy != GlyphH-1 {
				w = mask
			}
			rows[row*GlyphH+dy] = w
		}
	}
	return rows
}

// New allocates a panel and builds it with Init. Boards hold their
// displays by value, so only tests build one on its own.
func New() *Display {
	d := new(Display)
	d.Init()
	return d
}
