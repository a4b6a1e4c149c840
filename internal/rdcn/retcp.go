package rdcn

import (
	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/units"
)

// ReTCP models reTCP (Mukerjee et al., NSDI 2020), the state-of-the-art
// circuit-aware transport the case study compares against. reTCP reacts
// to *explicit circuit state*: ahead of its destination's circuit day it
// ramps the window to the circuit's bandwidth-delay product so the ToR
// VOQ is pre-filled ("prebuffering") and the circuit is saturated from
// its first microsecond; when the day ends it falls back to a window
// sized for the packet network.
//
// The paper evaluates prebuffering Δ of 1800 µs (the original paper's
// suggestion) and 600 µs (their sweep's minimum); the cost is queuing
// delay — prebuffered bytes sit in the VOQ for up to Δ (Fig. 8).
//
// ReTCP implements cc.Algorithm. Routing-side prebuffering (the ToR
// steering packets into the VOQ Δ early) is configured separately via
// topo.RotorConfig.Prebuffer; both must use the same Δ for a faithful
// model.
type ReTCP struct {
	// Sched/SrcTor/DstTor identify the circuit this flow rides.
	Sched  *Schedule
	SrcTor int
	DstTor int
	// Prebuffer is Δ: how long before a day the window ramps.
	Prebuffer sim.Duration
	// PacketRate/CircuitRate/FlowsSharing derive the two operating
	// points: a window of PacketRate·τ/FlowsSharing on the packet
	// network (at least one MSS) and CircuitRate·τ/FlowsSharing while
	// the circuit is up. FlowsSharing defaults to 1.
	PacketRate, CircuitRate units.BitRate
	FlowsSharing            int

	lim           cc.Limits
	pktWindow     float64
	circuitWindow float64
	cwnd          float64
	boosted       bool
	timer         *sim.Timer // pre-bound ramp timer; alternates up/down phases
	dayEnd        sim.Time   // end of the day being ridden while boosted
}

// Init implements cc.Algorithm: derive windows and start tracking the
// rotor calendar.
func (r *ReTCP) Init(lim cc.Limits) {
	r.lim = lim
	if r.FlowsSharing == 0 {
		r.FlowsSharing = 1
	}
	r.pktWindow = max(float64(r.PacketRate.BDP(lim.BaseRTT))/float64(r.FlowsSharing), float64(lim.MSS))
	r.circuitWindow = float64(r.CircuitRate.BDP(lim.BaseRTT)) / float64(r.FlowsSharing)
	r.cwnd = r.pktWindow
	if lim.Engine != nil && r.Sched != nil {
		r.timer = lim.Engine.NewTimer(r.onTimer)
	}
	r.schedule()
}

// schedule arms the ramp-up timer Δ before the next day connecting
// SrcTor→DstTor; onTimer then chains the ramp-down at that day's end.
func (r *ReTCP) schedule() {
	if r.timer == nil {
		return
	}
	eng := r.lim.Engine
	day := r.Sched.NextDayStart(r.SrcTor, r.DstTor, eng.Now())
	up := day.Add(-r.Prebuffer)
	if up < eng.Now() {
		up = eng.Now()
	}
	r.dayEnd = day.Add(r.Sched.Day)
	r.timer.Arm(up)
}

// onTimer alternates between the two operating points: ramp up Δ before
// the day, ramp down when the day ends.
func (r *ReTCP) onTimer() {
	if !r.boosted {
		r.boosted = true
		r.cwnd = r.circuitWindow
		r.timer.Arm(r.dayEnd)
		return
	}
	r.boosted = false
	r.cwnd = r.pktWindow
	r.schedule()
}

// OnAck implements cc.Algorithm (reTCP's reaction is schedule-driven).
func (r *ReTCP) OnAck(cc.Ack) {}

// OnLoss implements cc.Algorithm: halve within the current mode's bounds.
func (r *ReTCP) OnLoss(sim.Time) {
	r.cwnd /= 2
	if r.cwnd < float64(r.lim.MSS) {
		r.cwnd = float64(r.lim.MSS)
	}
}

// Cwnd implements cc.Algorithm.
func (r *ReTCP) Cwnd() float64 { return r.cwnd }

// Rate implements cc.Algorithm: pace the window over τ.
func (r *ReTCP) Rate() units.BitRate {
	rate := units.BitRate(r.cwnd*8/r.lim.BaseRTT.Seconds() + 0.5)
	if rate < units.Mbps {
		rate = units.Mbps
	}
	return units.MinRate(rate, r.lim.HostRate)
}

// Stop implements the transport teardown hook.
func (r *ReTCP) Stop() {
	if r.timer != nil {
		r.timer.Stop()
	}
}
