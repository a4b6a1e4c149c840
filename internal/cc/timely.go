package cc

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// Timely implements TIMELY (Mittal et al., SIGCOMM 2015), the paper's
// representative current-based law: it reacts to the RTT *gradient*, with
// low/high RTT thresholds as guard rails and hyperactive increase (HAI)
// after repeated negative gradients. Rate-based; the window is only a cap
// on inflight data. As §2.2 shows, the gradient signal reacts fast but
// admits no unique equilibrium queue length.
type Timely struct {
	lim Limits

	rate      units.BitRate
	rttDiff   float64 // EWMA of RTT differences, in seconds
	prevRTT   sim.Duration
	havePrev  bool
	negStreak int
	lastSeq   int64 // once-per-RTT update gate
}

// TIMELY's parameters: the TIMELY paper's datacenter configuration
// (Mittal et al., SIGCOMM 2015).
const (
	timelyEWMAAlpha float64 = 0.875 // weight of a new RTT-difference sample
	timelyBeta      float64 = 0.8   // multiplicative-decrease factor β

	timelyTLow  = 50 * sim.Microsecond  // below T_low: always increase
	timelyTHigh = 500 * sim.Microsecond // above T_high: decrease toward it

	timelyAddStep   = 30 * units.Mbps // additive rate increment δ
	timelyHAIThresh = 5               // negative gradients before hyperactive increase
	timelyMinRate   = 10 * units.Mbps // sending-rate floor
)

// NewTimely returns a TIMELY instance with published defaults.
func NewTimely() *Timely { return &Timely{} }

// TimelyBuilder adapts NewTimely to Builder.
func TimelyBuilder() Builder { return func() Algorithm { return NewTimely() } }

// Init implements Algorithm.
func (t *Timely) Init(lim Limits) {
	t.lim = lim
	t.rate = lim.HostRate
}

// Cwnd implements Algorithm: a rate-proportional inflight cap (TIMELY
// itself is windowless; the cap only prevents unbounded bursts).
func (t *Timely) Cwnd() float64 {
	w := 2 * float64(t.rate.BDP(t.lim.BaseRTT))
	if w < float64(t.lim.MSS) {
		w = float64(t.lim.MSS)
	}
	return w
}

// Rate implements Algorithm.
func (t *Timely) Rate() units.BitRate { return t.rate }

// OnLoss implements Algorithm.
func (t *Timely) OnLoss(sim.Time) {
	t.rate = units.MaxRate(t.rate/2, timelyMinRate)
}

// OnAck implements Algorithm. Updates run once per RTT, matching the
// TIMELY engine's completion-event granularity.
func (t *Timely) OnAck(a Ack) {
	if a.RTT <= 0 {
		return
	}
	if !t.havePrev {
		t.prevRTT = a.RTT
		t.havePrev = true
		return
	}
	if a.AckSeq < t.lastSeq {
		return
	}
	t.lastSeq = a.SndNxt

	newDiff := float64(a.RTT-t.prevRTT) / float64(sim.Second)
	t.prevRTT = a.RTT
	t.rttDiff = (1-timelyEWMAAlpha)*t.rttDiff + timelyEWMAAlpha*newDiff
	normGrad := t.rttDiff / t.lim.BaseRTT.Seconds()

	switch {
	case a.RTT < timelyTLow:
		t.increase(1)
	case a.RTT > timelyTHigh:
		// Proportional decrease toward THigh.
		f := 1 - timelyBeta*(1-float64(timelyTHigh)/float64(a.RTT))
		t.decreaseTo(float64(t.rate) * f)
	case normGrad <= 0:
		t.negStreak++
		n := 1
		if t.negStreak >= timelyHAIThresh {
			n = 5 // hyperactive increase
		}
		t.increase(n)
	default:
		t.negStreak = 0
		t.decreaseTo(float64(t.rate) * (1 - timelyBeta*normGrad))
	}
}

func (t *Timely) increase(n int) {
	t.rate = units.MinRate(t.rate+units.BitRate(n)*timelyAddStep, t.lim.HostRate)
}

func (t *Timely) decreaseTo(r float64) {
	t.negStreak = 0
	t.rate = units.MaxRate(units.BitRate(r), timelyMinRate)
}
