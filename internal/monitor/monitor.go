// Package monitor provides a congestion-control interposer that records
// the window/rate/feedback trajectory of a flow (the data behind
// cwnd-over-time plots).
//
// The wrapper is pass-through: experiments behave identically with or
// without it, which the tests assert.
package monitor

import (
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
