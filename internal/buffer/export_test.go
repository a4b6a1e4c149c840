package buffer

// Free returns the unoccupied bytes (0 for unbounded pools).
func (s *Shared) Free() int64 {
	if s.Total <= 0 {
		return 0
	}
	return s.Total - s.used
}
