package cc

import (
	"math"

	"repro/internal/sim"
	"repro/internal/units"
)

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM 2010), the
// canonical ECN-proportional law the paper's taxonomy places among
// voltage-based schemes (Fig. 1) and whose standing queue §2.2 calls
// out: switches mark packets above a step threshold K, the sender tracks
// the EWMA fraction α of marked bytes and cuts cwnd by α/2 once per
// window, so the queue oscillates around K (which must exceed b·τ/7)
// instead of draining to zero.
type DCTCP struct {
	lim Limits

	cwnd  float64
	alpha float64

	ackedBytes  int64 // bytes acked in the current observation window
	markedBytes int64 // of which carried an ECN echo
	windowEnd   int64 // sequence ending the observation window
}

// dctcpG is DCTCP's α estimation gain g, the DCTCP paper's 1/16. The
// window floors at one MSS.
const dctcpG float64 = 1.0 / 16

// NewDCTCP returns a DCTCP instance with published defaults.
func NewDCTCP() *DCTCP { return &DCTCP{} }

// DCTCPBuilder builds DCTCP laws carved from one array.
func DCTCPBuilder() Builder { return func(n int) []Algorithm { return Carve(n, DCTCP{}) } }

// ECT marks DCTCP traffic ECN-capable.
func (d *DCTCP) ECT() bool { return true }

// Init implements Algorithm.
func (d *DCTCP) Init(lim Limits) {
	d.lim = lim
	d.cwnd = lim.BDP()
}

// Cwnd implements Algorithm.
func (d *DCTCP) Cwnd() float64 { return d.cwnd }

// Rate implements Algorithm. DCTCP is ACK-clocked like the kernel TCP it
// ships in — pacing at cwnd/τ would cap arrivals at the line rate and
// hide exactly the standing queue the scheme is known for.
func (d *DCTCP) Rate() units.BitRate { return 0 }

// OnLoss implements Algorithm: classic halving.
func (d *DCTCP) OnLoss(sim.Time) {
	d.cwnd = math.Max(d.cwnd/2, float64(d.lim.MSS))
}

// OnAck implements Algorithm.
func (d *DCTCP) OnAck(a Ack) {
	d.ackedBytes += a.NewlyAcked
	if a.ECNEcho {
		d.markedBytes += a.NewlyAcked
	}
	// Additive increase: one MSS per RTT, spread across ACKs.
	d.cwnd += float64(d.lim.MSS) * float64(a.NewlyAcked) / math.Max(d.cwnd, 1)

	if a.AckSeq < d.windowEnd {
		d.clamp()
		return
	}
	// One observation window (≈ one RTT of data) completed.
	if d.ackedBytes > 0 {
		frac := float64(d.markedBytes) / float64(d.ackedBytes)
		d.alpha = (1-dctcpG)*d.alpha + dctcpG*frac
		if d.markedBytes > 0 {
			d.cwnd *= 1 - d.alpha/2
		}
	}
	d.ackedBytes, d.markedBytes = 0, 0
	d.windowEnd = a.SndNxt
	d.clamp()
}

func (d *DCTCP) clamp() {
	// DCTCP must be able to push the queue up to the marking threshold
	// K, so unlike the near-zero-queue laws its cap sits well above one
	// BDP (the standing queue of §2.2 is the point of the comparison).
	d.cwnd = clamp(d.cwnd, float64(d.lim.MSS), 4*d.lim.BDP())
}
