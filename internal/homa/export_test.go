package homa

// UnschedPriority returns the unscheduled priority class for a message of
// the given size.
func (h *Host) UnschedPriority(size int64) uint8 { return h.unschedPrio(size) }

// Done reports sender-side completion (receiver confirmed all bytes).
func (m *Msg) Done() bool { return m.done }

// Live returns the number of incomplete messages the host receives.
func (h *Host) Live() int { return len(h.live) }
