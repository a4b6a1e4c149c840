package core

import (
	"math"

	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/units"
)

// ThetaPowerTCP is Algorithm 2: the standalone variant for legacy
// networks without INT. Rearranging e/f (Eq. 8) expresses normalized
// power purely in terms of the RTT θ and its gradient θ̇:
//
//	Γnorm = (θ̇ + 1)·θ/τ
//
// so only accurate end-host timestamps are required. The trade-off the
// paper documents (§3.5, §4.2): txRate is assumed to equal the bottleneck
// bandwidth, so θ-PowerTCP cannot see under-utilization and relies on the
// slow additive increase to fill freed bandwidth — short flows still
// benefit, medium and long flows pay for it. Window updates happen once
// per RTT (Algorithm 2, UpdateWindow guard).
type ThetaPowerTCP struct {
	cfg Config
	lim cc.Limits

	beta    float64
	maxCwnd float64
	cwnd    float64
	rate    units.BitRate
	oldCwnd float64
	snapSeq int64

	prevRTT     sim.Duration
	prevAckTime sim.Time
	havePrev    bool
	smooth      float64
	lastUpdated int64 // Algorithm 2's lastUpdated sequence gate
}

// NewTheta returns a θ-PowerTCP instance.
func NewTheta(cfg Config) *ThetaPowerTCP { return &ThetaPowerTCP{cfg: cfg} }

// ThetaBuilder adapts NewTheta to cc.Builder.
func ThetaBuilder(cfg Config) cc.Builder {
	return func() cc.Algorithm { return NewTheta(cfg) }
}

// ThetaBuilder adapts the configuration to cc.Builder for the θ variant.
func (c Config) ThetaBuilder() cc.Builder { return ThetaBuilder(c) }

// Init implements cc.Algorithm.
func (p *ThetaPowerTCP) Init(lim cc.Limits) {
	p.lim = lim
	p.cfg.fillDefaults()
	p.beta, p.maxCwnd = bounds(lim)
	p.cwnd = lim.BDP()
	p.oldCwnd = p.cwnd
	p.rate = lim.HostRate
	p.smooth = 1
}

// Cwnd implements cc.Algorithm.
func (p *ThetaPowerTCP) Cwnd() float64 { return p.cwnd }

// Rate implements cc.Algorithm.
func (p *ThetaPowerTCP) Rate() units.BitRate { return p.rate }

// OnLoss implements cc.Algorithm (as for PowerTCP).
func (p *ThetaPowerTCP) OnLoss(sim.Time) { p.setCwnd(p.cwnd / 2) }

// OnAck implements cc.Algorithm (Algorithm 2, procedure NewAck).
func (p *ThetaPowerTCP) OnAck(a cc.Ack) {
	if a.RTT <= 0 {
		return
	}
	if !p.havePrev {
		p.prevRTT, p.prevAckTime = a.RTT, a.Now
		p.havePrev = true
		return
	}
	dt := a.Now.Sub(p.prevAckTime) // tc − tc_prev (line 10)
	if dt <= 0 {
		return
	}
	thetaDot := float64(a.RTT-p.prevRTT) / float64(dt) // dRTT/dt (line 11)
	tau := p.lim.BaseRTT
	norm := (thetaDot + 1) * float64(a.RTT) / float64(tau) // Γnorm (line 12)

	// prevRTT/t_c roll forward on every ACK (lines 7–8).
	p.prevRTT, p.prevAckTime = a.RTT, a.Now

	// Smoothing (line 13), with Δt capped at τ as for Algorithm 1.
	sdt := dt
	if sdt > tau {
		sdt = tau
	}
	p.smooth = (p.smooth*float64(tau-sdt) + norm*float64(sdt)) / float64(tau)

	// UpdateWindow's once-per-RTT gate (lines 16–18).
	if a.AckSeq < p.lastUpdated {
		return
	}
	g := p.cfg.Gamma
	normS := math.Max(p.smooth, minNormPower)
	p.setCwnd(g*(p.oldCwnd/normS+p.beta) + (1-g)*p.cwnd)
	p.lastUpdated = a.SndNxt // lastUpdated = snd_nxt (line 22)
	if a.AckSeq >= p.snapSeq {
		p.oldCwnd = p.cwnd
		p.snapSeq = a.SndNxt
	}
}

func (p *ThetaPowerTCP) setCwnd(w float64) {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return
	}
	p.cwnd = clampF(w, minCwnd, p.maxCwnd)
	p.rate = rateFor(p.cwnd, p.lim)
}
