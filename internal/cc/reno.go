package cc

import (
	"math"

	"repro/internal/sim"
	"repro/internal/units"
)

// Reno implements TCP NewReno congestion avoidance — the loss-based
// reference at the bottom of the paper's taxonomy (Fig. 1): slow start
// to ssthresh, +1 MSS/RTT additive increase, halve on loss. §2.2 uses
// it as the example of a scheme that must fill the buffer to its
// maximum before reacting; the standing-queue ablation benchmark shows
// exactly that against PowerTCP.
type Reno struct {
	lim      Limits
	cwnd     float64
	ssthresh float64
}

// NewReno returns a NewReno instance.
func NewReno() *Reno { return &Reno{} }

// RenoBuilder builds Reno laws carved from one array.
func RenoBuilder() Builder { return func(n int) []Algorithm { return Carve(n, Reno{}) } }

// Init implements Algorithm: slow start from a small window.
func (r *Reno) Init(lim Limits) {
	r.lim = lim
	r.cwnd = 10 * float64(lim.MSS) // RFC 6928 initial window
	r.ssthresh = math.Inf(1)
}

// Cwnd implements Algorithm.
func (r *Reno) Cwnd() float64 { return r.cwnd }

// Rate implements Algorithm. Reno is ACK-clocked, not paced: returning
// zero disables the transport's pacer.
func (r *Reno) Rate() units.BitRate { return 0 }

// OnAck implements Algorithm.
func (r *Reno) OnAck(a Ack) {
	if a.NewlyAcked <= 0 {
		return
	}
	if r.cwnd < r.ssthresh {
		r.cwnd += float64(a.NewlyAcked) // slow start
	} else {
		// Congestion avoidance: one MSS per RTT.
		r.cwnd += float64(r.lim.MSS) * float64(a.NewlyAcked) / math.Max(r.cwnd, 1)
	}
}

// OnLoss implements Algorithm: multiplicative decrease.
func (r *Reno) OnLoss(sim.Time) {
	r.ssthresh = math.Max(r.cwnd/2, 2*float64(r.lim.MSS))
	r.cwnd = r.ssthresh
}
