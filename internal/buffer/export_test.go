package buffer

// Free returns the unoccupied bytes (0 for unbounded pools).
func (s *Shared) Free() int64 {
	if s.Total <= 0 {
		return 0
	}
	return s.Total - s.used
}

// NewShared returns a DT-managed pool of total bytes with factor alpha.
// A switch keeps its pool as a field (swtch.Switch.Init).
func NewShared(total int64, alpha float64) *Shared {
	return &Shared{Total: total, Alpha: alpha}
}
