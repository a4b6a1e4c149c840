// Package cc defines the congestion-control interface shared by every
// algorithm in the repository and implements the sender-based baselines
// the paper compares against: HPCC, TIMELY and DCQCN, plus DCTCP (the
// Fig. 1 taxonomy's ECN reference), Reno (a loss-based reference) and a
// fixed-window reference. The paper's own contribution — PowerTCP and
// θ-PowerTCP — lives in internal/core and implements the same interface.
//
// All algorithms are driven per acknowledgment, exactly like the NIC/
// kernel deployments the paper targets: the transport calls OnAck with
// the measured RTT, the echoed INT stack, and bookkeeping about what the
// ACK covered, and reads back a window (bytes) and a pacing rate.
package cc

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Limits carries the static per-flow configuration every algorithm needs.
type Limits struct {
	BaseRTT  sim.Duration  // τ: configured base round-trip time (§3.3)
	HostRate units.BitRate // NIC line rate at the sender
	MSS      int64         // maximum payload per packet
	Engine   *sim.Engine   // for algorithms that need timers (DCQCN)
}

// BDP returns the host bandwidth-delay product in bytes, the paper's
// cwnd_init = HostBw × τ (§3.3 "Parameters").
func (l Limits) BDP() float64 { return float64(l.HostRate.BDP(l.BaseRTT)) }

// Ack is the per-acknowledgment feedback handed to an algorithm.
type Ack struct {
	Now        sim.Time
	AckSeq     int64                 // cumulative sequence acknowledged
	NewlyAcked int64                 // bytes this ACK newly acknowledged
	SndNxt     int64                 // sender's next sequence (per-RTT bookkeeping)
	RTT        sim.Duration          // sample measured from the echoed timestamp
	ECNEcho    bool                  // acknowledged packet had CE set
	Hops       []telemetry.HopRecord // INT stack collected round-trip
}

// Algorithm is a congestion-control law. Implementations are per-flow and
// not safe for concurrent use (the simulator is single-threaded).
type Algorithm interface {
	// Init is called once before any traffic with the flow's limits.
	Init(lim Limits)
	// OnAck processes one acknowledgment.
	OnAck(a Ack)
	// OnLoss signals a retransmission event (timeout or fast retransmit).
	OnLoss(now sim.Time)
	// Cwnd returns the current congestion window in bytes.
	Cwnd() float64
	// Rate returns the pacing rate. Zero means unpaced.
	Rate() units.BitRate
}

// CNPHandler is implemented by algorithms driven by explicit congestion
// notification packets (DCQCN).
type CNPHandler interface {
	OnCNP(now sim.Time)
}

// WantsECT reports whether the algorithm needs its data packets marked
// ECN-capable. Algorithms advertise it by implementing interface{ ECT() bool }.
func WantsECT(a Algorithm) bool {
	e, ok := a.(interface{ ECT() bool })
	return ok && e.ECT()
}

// Builder constructs a fresh per-flow Algorithm instance.
type Builder func() Algorithm

// clamp bounds a window to [lo, hi].
func clamp(w, lo, hi float64) float64 {
	if w < lo {
		return lo
	}
	if w > hi {
		return hi
	}
	return w
}

// windowRate converts a window into the paper's pacing rule rate = cwnd/τ,
// rounding to the nearest bit/s so exact windows map to exact rates.
func windowRate(cwnd float64, baseRTT sim.Duration, lineRate units.BitRate) units.BitRate {
	r := units.BitRate(cwnd*8/baseRTT.Seconds() + 0.5)
	return units.MinRate(r, lineRate)
}

// FixedWindow is a reference algorithm with a constant window, used by
// tests and by the benchmark's transport ladder.
type FixedWindow struct {
	Window float64 // bytes; 0 means one BDP
	lim    Limits
}

// Init implements Algorithm.
func (f *FixedWindow) Init(lim Limits) {
	f.lim = lim
	if f.Window == 0 {
		f.Window = lim.BDP()
	}
}

// OnAck implements Algorithm (no reaction).
func (f *FixedWindow) OnAck(Ack) {}

// OnLoss implements Algorithm (no reaction).
func (f *FixedWindow) OnLoss(sim.Time) {}

// Cwnd implements Algorithm.
func (f *FixedWindow) Cwnd() float64 { return f.Window }

// Rate implements Algorithm.
func (f *FixedWindow) Rate() units.BitRate {
	return windowRate(f.Window, f.lim.BaseRTT, f.lim.HostRate)
}
