package i2c

// NewBus allocates a bus and builds it with Init. Boards hold their Bus by
// value, so only tests build one on its own.
func NewBus(clockHz int) *Bus {
	b := new(Bus)
	b.Init(clockHz)
	return b
}
