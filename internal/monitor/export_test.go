package monitor

import "slices"

// Presize grows the sample buffer to hold n records without further
// allocation.
func (m *CC) Presize(n int) {
	if n > len(m.Samples) {
		m.Samples = slices.Grow(m.Samples, n-len(m.Samples))
	}
}

// Reset drops the recorded trajectory while keeping the buffer.
func (m *CC) Reset() {
	m.Samples = m.Samples[:0]
	m.losses = 0
	m.lastAt = 0
	m.haveAny = false
}
