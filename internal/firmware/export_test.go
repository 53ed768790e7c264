package firmware

import (
	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/smartits"
)

// New allocates firmware and builds it with Init. Devices hold their
// Firmware by value, so only tests build one on its own.
func New(cfg Config, board *smartits.Board, m *menu.Menu, tx Sender) (*Firmware, error) {
	fw := new(Firmware)
	if err := fw.Init(cfg, board, m, tx); err != nil {
		return nil, err
	}
	return fw, nil
}
