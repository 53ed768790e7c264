package history

import "sort"

// SeriesNames reports the retained series names, sorted.
func (s *Store) SeriesNames() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.series))
	for name := range s.series {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	return names
}
