package cc

import (
	"math"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// HPCC implements High Precision Congestion Control (Li et al., SIGCOMM
// 2019), the paper's strongest baseline and the scheme whose INT feedback
// PowerTCP reuses. Per ACK it estimates the most-utilized hop
//
//	U_j = qlen/(b·τ) + txRate/b
//
// EWMA-smooths the maximum into U, and applies multiplicative-
// plus-additive control toward target utilization η:
//
//	W = Wc/(U/η) + W_AI
//
// where the reference window Wc is frozen for an RTT to avoid reacting to
// its own adjustments, and up to MaxStage additive-only steps are allowed
// below target (the paper's classification: a voltage-based law — it
// reacts to inflight state, not to its trend).
type HPCC struct {
	lim   Limits
	wai   float64
	winit float64

	cwnd     float64
	wc       float64
	u        float64
	incStage int
	lastSeq  int64
	prev     []telemetry.HopRecord
	havePrev bool
}

// HPCC's parameters, the HPCC paper's published settings (Li et al.,
// SIGCOMM 2019). hpccEta is typed so that W_AI's constant factor (1−η)
// rounds as it does at run time.
const (
	hpccEta           float64 = 0.95 // target utilization η
	hpccMaxStage              = 5    // consecutive additive-increase stages
	hpccExpectedFlows         = 10   // N in W_AI = Winit·(1−η)/N
	hpccMinCwnd       float64 = 100  // window floor, bytes
)

// NewHPCC returns an HPCC instance with the published defaults.
func NewHPCC() *HPCC { return &HPCC{} }

// HPCCBuilder builds HPCC laws carved from one array.
func HPCCBuilder() Builder { return func(n int) []Algorithm { return Carve(n, HPCC{}) } }

// Init implements Algorithm.
func (h *HPCC) Init(lim Limits) {
	h.lim = lim
	h.winit = lim.BDP()
	h.wai = h.winit * (1 - hpccEta) / hpccExpectedFlows
	h.cwnd = h.winit
	h.wc = h.winit
	h.u = 1
}

// Cwnd implements Algorithm.
func (h *HPCC) Cwnd() float64 { return h.cwnd }

// Rate implements Algorithm: rate = cwnd/τ.
func (h *HPCC) Rate() units.BitRate {
	r := units.BitRate(h.cwnd*8/h.lim.BaseRTT.Seconds() + 0.5)
	if r < units.Mbps {
		r = units.Mbps
	}
	return units.MinRate(r, h.lim.HostRate)
}

// OnLoss implements Algorithm.
func (h *HPCC) OnLoss(sim.Time) {
	h.cwnd = math.Max(h.cwnd/2, hpccMinCwnd)
	h.wc = math.Min(h.wc, h.cwnd)
}

// OnAck implements Algorithm.
func (h *HPCC) OnAck(a Ack) {
	if len(a.Hops) == 0 {
		return
	}
	if !h.havePrev || len(h.prev) != len(a.Hops) {
		h.prev = a.Snapshot(h.prev)
		h.havePrev = true
		return
	}
	uNew, dt, ok := h.measure(a.Hops)
	h.prev = a.Snapshot(h.prev)
	if !ok {
		return
	}
	// EWMA over the sampling interval, as in the HPCC pseudocode.
	tau := h.lim.BaseRTT
	if dt > tau {
		dt = tau
	}
	h.u = (h.u*float64(tau-dt) + uNew*float64(dt)) / float64(tau)

	updateWc := a.AckSeq >= h.lastSeq
	var w float64
	if h.u >= hpccEta || h.incStage >= hpccMaxStage {
		w = h.wc/(h.u/hpccEta) + h.wai
		if updateWc {
			h.incStage = 0
			h.wc = w
			h.lastSeq = a.SndNxt
		}
	} else {
		w = h.wc + h.wai
		if updateWc {
			h.incStage++
			h.wc = w
			h.lastSeq = a.SndNxt
		}
	}
	h.cwnd = clamp(w, hpccMinCwnd, h.winit)
}

// measure returns max_j U_j and the Δt of the maximizing hop.
func (h *HPCC) measure(hops []telemetry.HopRecord) (u float64, dt sim.Duration, ok bool) {
	tau := h.lim.BaseRTT.Seconds()
	best := -1.0
	var bestDT sim.Duration
	for i := range hops {
		cur, prev := hops[i], h.prev[i]
		hdt := cur.TS.Sub(prev.TS)
		if hdt <= 0 {
			continue
		}
		bBps := cur.Rate.BytesPerSec()
		txRate := float64(cur.TxBytes-prev.TxBytes) / hdt.Seconds()
		uj := float64(cur.QLen)/(bBps*tau) + txRate/bBps
		if uj > best {
			best = uj
			bestDT = hdt
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestDT, true
}
