package cc

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// DCQCN implements the reaction-point side of DCQCN (Zhu et al., SIGCOMM
// 2015), the ECN-based scheme deployed for large-scale RDMA. Switches
// RED-mark ECN-capable packets; the receiver (notification point,
// implemented in internal/transport) sends at most one CNP per flow per
// 50 µs while marks arrive; and this sender (reaction point) cuts its
// rate on CNPs and recovers through the fast-recovery / additive /
// hyper-increase ladder driven by a timer and a byte counter.
//
// In the paper's classification DCQCN is voltage-based and coarse: the
// mark tells the sender *that* a queue exceeded a threshold, not how fast
// it is growing (§2, Fig. 2).
type DCQCN struct {
	lim Limits

	rate   units.BitRate // RC
	target units.BitRate // RT
	alpha  float64

	timerStage int
	byteStage  int
	byteAcc    int64

	alphaTimer *sim.Timer
	incTimer   *sim.Timer
}

// DCQCN's reaction-point parameters, the DCQCN paper's published
// settings (Zhu et al., SIGCOMM 2015).
const (
	dcqcnG float64 = 1.0 / 256 // α-update gain g

	dcqcnRateAI  = 40 * units.Mbps  // additive increase step R_AI
	dcqcnRateHAI = 400 * units.Mbps // hyper increase step R_HAI

	dcqcnAlphaTimer = 55 * sim.Microsecond // α-decay period without CNPs
	dcqcnIncTimer   = 55 * sim.Microsecond // rate-increase timer period
	dcqcnIncBytes   = 10 << 20             // byte-counter stage size B
	dcqcnF          = 5                    // fast-recovery stage count F
	dcqcnMinRate    = 40 * units.Mbps      // sending-rate floor
)

// NewDCQCN returns a DCQCN reaction point with published defaults.
func NewDCQCN() *DCQCN { return &DCQCN{} }

// DCQCNBuilder builds DCQCN laws carved from one array.
func DCQCNBuilder() Builder { return func(n int) []Algorithm { return Carve(n, DCQCN{}) } }

// ECT marks DCQCN data packets ECN-capable (see WantsECT).
func (d *DCQCN) ECT() bool { return true }

// Init implements Algorithm.
func (d *DCQCN) Init(lim Limits) {
	d.lim = lim
	d.rate = lim.HostRate
	d.target = lim.HostRate
	d.alpha = 1
	if lim.Engine != nil {
		// Pre-bound, reschedulable timers: the per-CNP α-timer reset and
		// the periodic increase both re-arm without allocating.
		d.alphaTimer = lim.Engine.NewTimer(func() {
			d.alpha *= 1 - dcqcnG
			d.armAlphaTimer()
		})
		d.incTimer = lim.Engine.NewTimer(func() {
			d.timerStage++
			d.raise()
			d.armIncTimer()
		})
	}
	d.armAlphaTimer()
	d.armIncTimer()
}

// Cwnd implements Algorithm: inflight cap proportional to the rate.
func (d *DCQCN) Cwnd() float64 {
	w := 2 * float64(d.rate.BDP(d.lim.BaseRTT))
	if w < float64(d.lim.MSS) {
		w = float64(d.lim.MSS)
	}
	return w
}

// Rate implements Algorithm.
func (d *DCQCN) Rate() units.BitRate { return d.rate }

// OnAck implements Algorithm: advances the byte counter.
func (d *DCQCN) OnAck(a Ack) {
	d.byteAcc += a.NewlyAcked
	for d.byteAcc >= dcqcnIncBytes {
		d.byteAcc -= dcqcnIncBytes
		d.byteStage++
		d.raise()
	}
}

// OnLoss implements Algorithm: RDMA transports treat retransmission as a
// serious event; halve like a CNP with α=1.
func (d *DCQCN) OnLoss(sim.Time) {
	d.target = d.rate
	d.rate = units.MaxRate(d.rate/2, dcqcnMinRate)
	d.resetIncrease()
}

// OnCNP implements CNPHandler: the DCQCN rate cut.
func (d *DCQCN) OnCNP(sim.Time) {
	d.target = d.rate
	d.rate = units.MaxRate(units.BitRate(float64(d.rate)*(1-d.alpha/2)), dcqcnMinRate)
	d.alpha = (1-dcqcnG)*d.alpha + dcqcnG
	d.resetIncrease()
	d.armAlphaTimer()
}

func (d *DCQCN) resetIncrease() {
	d.timerStage = 0
	d.byteStage = 0
	d.byteAcc = 0
	d.armIncTimer()
}

func (d *DCQCN) armAlphaTimer() {
	if d.alphaTimer != nil {
		d.alphaTimer.ArmAfter(dcqcnAlphaTimer)
	}
}

func (d *DCQCN) armIncTimer() {
	if d.incTimer != nil {
		d.incTimer.ArmAfter(dcqcnIncTimer)
	}
}

// raise performs one increase event: fast recovery toward the target for
// the first F stages, then additive increase of the target, and hyper
// increase once both counters pass F.
func (d *DCQCN) raise() {
	switch {
	case d.timerStage > dcqcnF && d.byteStage > dcqcnF:
		d.target = units.MinRate(d.target+dcqcnRateHAI, d.lim.HostRate)
	case d.timerStage > dcqcnF || d.byteStage > dcqcnF:
		d.target = units.MinRate(d.target+dcqcnRateAI, d.lim.HostRate)
	}
	d.rate = units.MinRate((d.rate+d.target)/2, d.lim.HostRate)
}

// Stop cancels the algorithm's timers (flow teardown in long sweeps).
func (d *DCQCN) Stop() {
	if d.alphaTimer != nil {
		d.alphaTimer.Stop()
	}
	if d.incTimer != nil {
		d.incTimer.Stop()
	}
}
