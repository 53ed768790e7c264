package core

import "sort"

// NewHost returns a plain host driver. Devices build theirs with
// NewHostWithMetrics, so only tests use this shorthand.
func NewHost(keepLog bool) *Host {
	return NewHostWithMetrics(keepLog, nil)
}

// OnState registers the debug-state handler.
func (s *Session) OnState(fn func(Event)) {
	s.updateHandlers(func(h *sessionHandlers) { h.onState = fn })
}

// ResetLog clears the retained event log.
func (s *Session) ResetLog() {
	s.mu.Lock()
	s.events = s.events[:0]
	s.mu.Unlock()
}

// PerDeviceStats returns every device's counters keyed by id, with the ids
// sorted ascending for stable reporting.
func (h *Hub) PerDeviceStats() ([]uint32, map[uint32]HostStats) {
	ids := h.Devices()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make(map[uint32]HostStats, len(ids))
	for _, id := range ids {
		if st, ok := h.DeviceStats(id); ok {
			out[id] = st
		}
	}
	return ids, out
}
