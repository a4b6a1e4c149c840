// Package core implements the paper's contribution: the power-based
// congestion-control laws PowerTCP (Algorithm 1, INT feedback) and
// θ-PowerTCP (Algorithm 2, delay feedback).
//
// Power is the product of network voltage ν = q + b·τ (BDP plus buffered
// bytes) and network current λ = q̇ + µ (queue gradient plus transmission
// rate), Γ = λ·ν (Eq. 5/6). Property 1 gives Γ(t) = b·w(t−t_f): measured
// power reveals the *aggregate* window occupying the bottleneck, which is
// what lets a per-flow sender make precise multiplicative decisions. Each
// update applies
//
//	cwnd ← γ·(cwnd_old/Γnorm + β) + (1−γ)·cwnd     (Eq. 7)
//
// with Γnorm = Γ/(b²τ) the power normalized by its equilibrium value,
// cwnd_old the window one RTT ago, β the additive-increase share, and γ
// an EWMA weight. The law is Lyapunov- and asymptotically stable with
// equilibrium (wₑ, qₑ) = (b·τ + β̂, β̂) and converges with time constant
// δt/γ (Theorems 1–2, reproduced numerically in internal/fluid).
package core

import (
	"math"

	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Config parameterizes both PowerTCP variants: the two settings the
// paper varies. The zero value yields its recommended ones.
type Config struct {
	// Gamma is the EWMA weight γ ∈ (0,1] for window updates; the paper
	// recommends 0.9 from a parameter sweep (§3.3).
	Gamma float64
	// UpdatePerRTT limits window updates to once per RTT, the
	// configuration used for the RDCN case study's fair comparison with
	// reTCP (§5). Default: update on every ACK (θ-PowerTCP always
	// updates once per RTT, per Algorithm 2).
	UpdatePerRTT bool
}

// The window law's fixed parameters (§3.3 "Parameters"). The additive
// increase is β = HostBw·τ/expectedFlows, and the window is capped at
// the host BDP, the paper's cwnd_init (flows start at line rate).
const (
	// expectedFlows is N, the flows expected to share the host NIC.
	expectedFlows = 10
	// minCwnd floors the window (bytes) so pacing never reaches zero;
	// large incasts need sub-MSS windows.
	minCwnd float64 = 100
)

func (c *Config) fillDefaults() {
	if c.Gamma == 0 {
		c.Gamma = 0.9
	}
}

// bounds returns the additive increase β and the window cap for a
// flow's limits.
func bounds(lim cc.Limits) (beta, maxCwnd float64) {
	return lim.BDP() / expectedFlows, lim.BDP()
}

// minNormPower floors the normalized power before dividing, so a
// momentarily idle bottleneck (Γ ≈ 0) produces a strong but finite
// multiplicative increase rather than an infinite window.
const minNormPower = 1e-3

// PowerTCP is Algorithm 1: the INT-based variant.
type PowerTCP struct {
	cfg Config
	lim cc.Limits

	beta    float64 // additive increase β, bytes
	maxCwnd float64
	cwnd    float64
	rate    units.BitRate
	oldCwnd float64 // cwnd snapshot from one RTT ago
	snapSeq int64   // sequence boundary for the next snapshot

	prev     []telemetry.HopRecord
	havePrev bool
	smooth   float64 // Γ_smooth, normalized
	lastUpd  int64   // per-RTT update gate (UpdatePerRTT)
}

// New returns a PowerTCP instance with the given configuration.
func New(cfg Config) *PowerTCP { return &PowerTCP{cfg: cfg} }

// Builder builds PowerTCP laws of this configuration carved from one
// array — the hook the experiment scheme registry uses to materialize
// registered configs.
func (c Config) Builder() cc.Builder {
	return func(n int) []cc.Algorithm { return cc.Carve(n, PowerTCP{cfg: c}) }
}

// Init implements cc.Algorithm: flows start at line rate with
// cwnd_init = HostBw·τ.
func (p *PowerTCP) Init(lim cc.Limits) {
	p.lim = lim
	p.cfg.fillDefaults()
	p.beta, p.maxCwnd = bounds(lim)
	p.cwnd = lim.BDP()
	p.oldCwnd = p.cwnd
	p.rate = lim.HostRate
	p.smooth = 1 // assume equilibrium power until the first measurement
}

// Cwnd implements cc.Algorithm.
func (p *PowerTCP) Cwnd() float64 { return p.cwnd }

// Rate implements cc.Algorithm: rate = cwnd/τ (Algorithm 1, line 6).
func (p *PowerTCP) Rate() units.BitRate { return p.rate }

// OnLoss implements cc.Algorithm. Loss under PowerTCP means admission
// drops at a shared buffer; halving mirrors the conservative reaction of
// the HPCC reference implementation to retransmissions.
func (p *PowerTCP) OnLoss(sim.Time) {
	p.setCwnd(p.cwnd / 2)
}

// OnAck implements cc.Algorithm (Algorithm 1, procedure NewAck).
func (p *PowerTCP) OnAck(a cc.Ack) {
	if len(a.Hops) == 0 {
		return // no INT this path; nothing to react to
	}
	if !p.havePrev || len(p.prev) != len(a.Hops) {
		p.prev = a.Snapshot(p.prev)
		p.havePrev = true
		return
	}
	norm, dt, ok := p.normPower(a.Hops)
	// prevInt = ack.H (line 7): always roll the reference forward.
	p.prev = a.Snapshot(p.prev)
	if !ok {
		return
	}
	p.smoothPower(norm, dt)

	if p.cfg.UpdatePerRTT && a.AckSeq < p.lastUpd {
		return
	}
	p.updateWindow(a)
	p.lastUpd = a.SndNxt
}

// normPower is Algorithm 1's NormPower: the maximum normalized power
// across hops, with the Δt of the maximizing hop.
func (p *PowerTCP) normPower(hops []telemetry.HopRecord) (norm float64, dt sim.Duration, ok bool) {
	tau := p.lim.BaseRTT.Seconds()
	best := -1.0
	var bestDT sim.Duration
	for i := range hops {
		h, prev := hops[i], p.prev[i]
		hdt := h.TS.Sub(prev.TS)
		if hdt <= 0 {
			continue
		}
		dts := hdt.Seconds()
		qdot := float64(h.QLen-prev.QLen) / dts     // dq/dt (line 12)
		mu := float64(h.TxBytes-prev.TxBytes) / dts // txRate (line 13)
		lambda := qdot + mu                         // current λ (line 14)
		bBps := h.Rate.BytesPerSec()                //
		nu := float64(h.QLen) + bBps*tau            // voltage ν = qlen + BDP (15–16)
		gamma := lambda * nu                        // power Γ′ (line 17)
		e := bBps * bBps * tau                      // base power b²τ (line 18)
		if g := gamma / e; g > best {               // Γ′norm, max over hops (19–21)
			best = g
			bestDT = hdt
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestDT, true
}

// smoothPower applies line 24's EWMA over the update interval:
// Γs ← (Γs·(τ−Δt) + Γnorm·Δt)/τ.
func (p *PowerTCP) smoothPower(norm float64, dt sim.Duration) {
	tau := p.lim.BaseRTT
	if dt > tau {
		dt = tau
	}
	p.smooth = (p.smooth*float64(tau-dt) + norm*float64(dt)) / float64(tau)
}

// updateWindow is Algorithm 1's UpdateWindow plus the once-per-RTT
// old-window bookkeeping of UpdateOld.
func (p *PowerTCP) updateWindow(a cc.Ack) {
	norm := math.Max(p.smooth, minNormPower)
	g := p.cfg.Gamma
	p.setCwnd(g*(p.oldCwnd/norm+p.beta) + (1-g)*p.cwnd)
	if a.AckSeq >= p.snapSeq { // one RTT has passed since the snapshot
		p.oldCwnd = p.cwnd
		p.snapSeq = a.SndNxt
	}
}

func (p *PowerTCP) setCwnd(w float64) {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return
	}
	p.cwnd = clampF(w, minCwnd, p.maxCwnd)
	p.rate = rateFor(p.cwnd, p.lim)
}

func clampF(w, lo, hi float64) float64 {
	if w < lo {
		return lo
	}
	if w > hi {
		return hi
	}
	return w
}

// rateFor paces at cwnd/τ capped to the NIC line rate.
func rateFor(cwnd float64, lim cc.Limits) units.BitRate {
	r := units.BitRate(cwnd*8/lim.BaseRTT.Seconds() + 0.5)
	if r < 1*units.Mbps {
		r = 1 * units.Mbps // keep the pacer alive at tiny windows
	}
	return units.MinRate(r, lim.HostRate)
}
