// Package monitor provides a congestion-control interposer that records
// the window/rate/feedback trajectory of a flow (the data behind
// cwnd-over-time plots).
//
// The wrapper is pass-through: experiments behave identically with or
// without it, which the tests assert.
package monitor

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/units"
)

// CCSample is one recorded control-law update.
type CCSample struct {
	At       sim.Time
	Cwnd     float64
	Rate     units.BitRate
	RTT      sim.Duration
	AckSeq   int64
	Losses   uint64
	HopCount int
}

// CC wraps an Algorithm and records a sample on every ACK.
type CC struct {
	Inner cc.Algorithm
	// Every keeps one sample per period (0 records every ACK).
	Every sim.Duration

	Samples []CCSample
	losses  uint64
	lastAt  sim.Time
	haveAny bool
}

// Wrap returns a recording wrapper around alg.
func Wrap(alg cc.Algorithm, every sim.Duration) *CC {
	return &CC{Inner: alg, Every: every}
}

// Presize grows the sample buffer to hold n records without further
// allocation. Callers that know the run horizon and sampling period —
// expected samples ≈ horizon/Every — size the monitor once so recording
// stays off the allocator during the run.
func (m *CC) Presize(n int) {
	if n > len(m.Samples) {
		m.Samples = slices.Grow(m.Samples, n-len(m.Samples))
	}
}

// Reset drops the recorded trajectory while keeping the buffer, so a
// monitor can be reused across suite repetitions without reallocating.
func (m *CC) Reset() {
	m.Samples = m.Samples[:0]
	m.losses = 0
	m.lastAt = 0
	m.haveAny = false
}

// Name implements cc.Algorithm.
func (m *CC) Name() string { return m.Inner.Name() + "+monitor" }

// Init implements cc.Algorithm.
func (m *CC) Init(lim cc.Limits) { m.Inner.Init(lim) }

// Cwnd implements cc.Algorithm.
func (m *CC) Cwnd() float64 { return m.Inner.Cwnd() }

// Rate implements cc.Algorithm.
func (m *CC) Rate() units.BitRate { return m.Inner.Rate() }

// OnLoss implements cc.Algorithm.
func (m *CC) OnLoss(now sim.Time) {
	m.losses++
	m.Inner.OnLoss(now)
}

// OnCNP forwards congestion notifications when the inner algorithm
// consumes them.
func (m *CC) OnCNP(now sim.Time) {
	if h, ok := m.Inner.(cc.CNPHandler); ok {
		h.OnCNP(now)
	}
}

// ECT forwards the inner algorithm's ECN capability.
func (m *CC) ECT() bool { return cc.WantsECT(m.Inner) }

// Stop forwards teardown to timer-driven inner algorithms.
func (m *CC) Stop() {
	if s, ok := m.Inner.(interface{ Stop() }); ok {
		s.Stop()
	}
}

// OnAck implements cc.Algorithm.
func (m *CC) OnAck(a cc.Ack) {
	m.Inner.OnAck(a)
	if m.haveAny && m.Every > 0 && a.Now.Sub(m.lastAt) < m.Every {
		return
	}
	m.haveAny = true
	m.lastAt = a.Now
	m.Samples = append(m.Samples, CCSample{
		At:       a.Now,
		Cwnd:     m.Inner.Cwnd(),
		Rate:     m.Inner.Rate(),
		RTT:      a.RTT,
		AckSeq:   a.AckSeq,
		Losses:   m.losses,
		HopCount: len(a.Hops),
	})
}

// WriteCSV dumps the samples as CSV.
func (m *CC) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time_us,cwnd_bytes,rate_gbps,rtt_us,ack_seq,losses"); err != nil {
		return err
	}
	for _, s := range m.Samples {
		if _, err := fmt.Fprintf(w, "%.2f,%.0f,%.3f,%.2f,%d,%d\n",
			float64(s.At)/float64(sim.Microsecond), s.Cwnd,
			float64(s.Rate)/1e9, s.RTT.Micros(), s.AckSeq, s.Losses); err != nil {
			return err
		}
	}
	return nil
}
