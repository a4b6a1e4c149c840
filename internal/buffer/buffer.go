// Package buffer implements shared-memory switch buffering with the
// Dynamic Thresholds algorithm of Choudhury and Hahne (IEEE/ACM ToN 1998),
// which the paper enables on every switch (§4.1) and credits for HOMA's
// behaviour under limited buffers.
//
// Under DT, a packet destined to a queue of current length q is admitted
// iff q < α · (B − Σ), where B is the total shared buffer and Σ the bytes
// currently in use across all queues. The admission threshold shrinks as
// the buffer fills, so heavily loaded ports cannot monopolize the memory
// and some headroom always remains for newly active queues.
package buffer

// Shared is a shared-memory buffer pool guarded by Dynamic Thresholds.
// A Total of zero or less means an unbounded buffer (every packet is
// admitted), which models the "practically infinite buffers" setup the
// paper contrasts HOMA's original evaluation with.
type Shared struct {
	Total int64   // total shared memory in bytes
	Alpha float64 // DT scaling factor (datacenter switches default to 1)

	used int64
}

// Used returns the bytes currently occupied across all queues.
func (s *Shared) Used() int64 { return s.used }

// Threshold returns the current DT admission threshold α·(B−Σ).
func (s *Shared) Threshold() float64 {
	return s.Alpha * float64(s.Total-s.used)
}

// Admit decides whether a packet of size n may join a queue currently
// holding qlen bytes, and reserves the memory if so. Callers must balance
// every successful Admit with a Release when the packet leaves the buffer.
func (s *Shared) Admit(qlen, n int64) bool {
	if s.Total <= 0 { // unbounded
		s.used += n
		return true
	}
	if s.used+n > s.Total || float64(qlen) >= s.Threshold() {
		return false
	}
	s.used += n
	return true
}

// Release returns n bytes to the pool.
func (s *Shared) Release(n int64) {
	s.used -= n
	if s.used < 0 {
		panic("buffer: release underflow")
	}
}
