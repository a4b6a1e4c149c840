package cc

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func lims() Limits {
	return Limits{BaseRTT: 20 * sim.Microsecond, HostRate: 100 * units.Gbps, MSS: 1000}
}

func hop(q int64, tx uint64, at sim.Duration) telemetry.HopRecord {
	return telemetry.HopRecord{QLen: q, TxBytes: tx, TS: sim.Time(at), Rate: 100 * units.Gbps}
}

func TestFixedWindowDefaults(t *testing.T) {
	f := &FixedWindow{}
	f.Init(lims())
	if f.Cwnd() != 250_000 {
		t.Fatalf("fixed window default = %v, want BDP", f.Cwnd())
	}
	if f.Rate() != 100*units.Gbps {
		t.Fatalf("fixed rate = %v", f.Rate())
	}
}

func TestWantsECT(t *testing.T) {
	if WantsECT(&FixedWindow{}) {
		t.Fatal("fixed window claims ECT")
	}
	if !WantsECT(NewDCQCN()) {
		t.Fatal("DCQCN must want ECT")
	}
}

func TestHPCCBelowTargetAdditive(t *testing.T) {
	h := NewHPCC()
	h.Init(lims())
	const dt = 10 * sim.Microsecond
	half := uint64((50 * units.Gbps).Bytes(dt))
	h.OnAck(Ack{AckSeq: 1, SndNxt: 2, Hops: []telemetry.HopRecord{hop(0, 0, 0)}})
	w0 := h.Cwnd()
	h.OnAck(Ack{AckSeq: 2, SndNxt: 3, Hops: []telemetry.HopRecord{hop(0, half, dt)}})
	// U ≈ 0.75 (EWMA of 1 and 0.5) stays below η=0.95... after enough
	// samples utilization drops and additive increase applies — but the
	// window is already at Winit, so it cannot exceed the cap.
	if h.Cwnd() > w0 {
		t.Fatalf("window exceeded Winit cap: %v > %v", h.Cwnd(), w0)
	}
	if h.Util() >= 1 {
		t.Fatalf("util = %v, want <1 at half load", h.Util())
	}
}

func TestHPCCOverloadMultiplicativeDecrease(t *testing.T) {
	h := NewHPCC()
	h.Init(lims())
	const dt = 10 * sim.Microsecond
	full := uint64((100 * units.Gbps).Bytes(dt))
	h.OnAck(Ack{AckSeq: 1, SndNxt: 2, Hops: []telemetry.HopRecord{hop(0, 0, 0)}})
	h.OnAck(Ack{AckSeq: 2, SndNxt: 3, Hops: []telemetry.HopRecord{hop(500_000, full, dt)}})
	// qlen/(bτ) = 500000/250000 = 2 plus txRate/b = 1 → U' = 3; smoothed
	// U = (1·10+3·10)/20 = 2 → W ≈ Wc/(2/0.95) ≈ 0.475·Winit + WAI.
	if h.Cwnd() > 0.55*250_000 || h.Cwnd() < 0.4*250_000 {
		t.Fatalf("HPCC window = %v, want ≈0.48·Winit", h.Cwnd())
	}
}

func TestHPCCReferenceWindowPerRTT(t *testing.T) {
	h := NewHPCC()
	h.Init(lims())
	const dt = sim.Microsecond
	full := uint64((100 * units.Gbps).Bytes(dt))
	h.OnAck(Ack{AckSeq: 1, SndNxt: 900_000, Hops: []telemetry.HopRecord{hop(0, 0, 0)}})
	h.OnAck(Ack{AckSeq: 2, SndNxt: 900_000, Hops: []telemetry.HopRecord{hop(500_000, full, dt)}})
	wcAfterFirst := h.wc
	// Second congested ACK within the same RTT: W recomputes from the
	// same Wc rather than compounding.
	h.OnAck(Ack{AckSeq: 3, SndNxt: 900_000, Hops: []telemetry.HopRecord{hop(500_000, 2*full, 2*dt)}})
	if h.wc != wcAfterFirst {
		t.Fatalf("Wc moved within an RTT: %v → %v", wcAfterFirst, h.wc)
	}
}

func TestTimelyGuardRails(t *testing.T) {
	tm := NewTimely()
	tm.Init(lims())
	tm.rate = 50 * units.Gbps
	// Below TLow: additive increase regardless of gradient.
	tm.OnAck(Ack{Now: 0, RTT: 20 * sim.Microsecond, AckSeq: 1, SndNxt: 2})
	tm.OnAck(Ack{Now: 1000, RTT: 30 * sim.Microsecond, AckSeq: 2, SndNxt: 3})
	if tm.Rate() != 50*units.Gbps+30*units.Mbps {
		t.Fatalf("rate below TLow = %v, want +δ", tm.Rate())
	}
	// Above THigh: multiplicative decrease.
	tm2 := NewTimely()
	tm2.Init(lims())
	tm2.rate = 50 * units.Gbps
	tm2.OnAck(Ack{Now: 0, RTT: 400 * sim.Microsecond, AckSeq: 1, SndNxt: 2})
	tm2.OnAck(Ack{Now: 1000, RTT: 1000 * sim.Microsecond, AckSeq: 2, SndNxt: 3})
	if tm2.Rate() >= 50*units.Gbps {
		t.Fatalf("rate above THigh did not decrease: %v", tm2.Rate())
	}
}

func TestTimelyGradientReaction(t *testing.T) {
	tm := NewTimely()
	tm.Init(lims())
	tm.rate = 50 * units.Gbps
	// RTTs between the guard rails with a positive gradient → decrease.
	rtts := []sim.Duration{100, 140, 180, 220}
	for i, us := range rtts {
		tm.OnAck(Ack{Now: sim.Time(i * 1000), RTT: us * sim.Microsecond,
			AckSeq: int64(i), SndNxt: int64(i) + 1})
	}
	if tm.Rate() >= 50*units.Gbps {
		t.Fatalf("positive gradient did not reduce rate: %v", tm.Rate())
	}
	// Negative gradient between the rails → increase (eventually HAI).
	tm2 := NewTimely()
	tm2.Init(lims())
	tm2.rate = 10 * units.Gbps
	rtts2 := []sim.Duration{300, 280, 260, 240, 220, 200, 180, 160}
	for i, us := range rtts2 {
		tm2.OnAck(Ack{Now: sim.Time(i * 1000), RTT: us * sim.Microsecond,
			AckSeq: int64(i), SndNxt: int64(i) + 1})
	}
	if tm2.Rate() <= 10*units.Gbps {
		t.Fatalf("negative gradient did not raise rate: %v", tm2.Rate())
	}
}

func TestDCQCNCutAndRecovery(t *testing.T) {
	eng := sim.New()
	d := NewDCQCN()
	l := lims()
	l.Engine = eng
	d.Init(l)
	if d.Rate() != 100*units.Gbps {
		t.Fatalf("initial rate = %v", d.Rate())
	}
	d.OnCNP(0)
	// α=1 at the first CNP → rate halves; α stays at 1 (the CNP update
	// (1−g)·α + g is a fixed point at 1 and only the timer decays it).
	if d.Rate() != 50*units.Gbps {
		t.Fatalf("rate after first CNP = %v, want 50G", d.Rate())
	}
	if a := d.Alpha(); a != 1 {
		t.Fatalf("alpha after first CNP = %v, want 1", a)
	}
	// Without further CNPs the increase timer drives fast recovery back
	// toward the 100G target.
	eng.RunUntil(sim.Time(400 * sim.Microsecond))
	if d.Rate() < 90*units.Gbps {
		t.Fatalf("fast recovery stalled at %v", d.Rate())
	}
	d.Stop()
}

func TestDCQCNAlphaDecays(t *testing.T) {
	eng := sim.New()
	d := NewDCQCN()
	l := lims()
	l.Engine = eng
	d.Init(l)
	d.OnCNP(0)
	a0 := d.Alpha()
	eng.RunUntil(sim.Time(300 * sim.Microsecond))
	if d.Alpha() >= a0 {
		t.Fatalf("alpha did not decay: %v → %v", a0, d.Alpha())
	}
	d.Stop()
}

// lender lends one array's storage and counts the loans.
type lender struct {
	room [telemetry.PathHopCap]telemetry.HopRecord
	lent int
}

func (l *lender) HopRoom() []telemetry.HopRecord { l.lent++; return l.room[:0] }

// A law's first snapshot takes its storage from the ACK's lender, and
// later ones copy into it in place; with no lender the copy goes to the
// heap.
func TestSnapshotTakesLentRoom(t *testing.T) {
	var l lender
	hops := []telemetry.HopRecord{hop(1, 100, 1), hop(2, 200, 2)}
	a := Ack{Hops: hops, Room: &l}
	prev := a.Snapshot(nil)
	if l.lent != 1 || &prev[0] != &l.room[0] || prev[1] != hops[1] {
		t.Fatalf("first snapshot: %d loans, %v", l.lent, prev)
	}
	a.Hops = []telemetry.HopRecord{hop(3, 300, 3)}
	if prev = a.Snapshot(prev); l.lent != 1 || &prev[0] != &l.room[0] || len(prev) != 1 || prev[0] != a.Hops[0] {
		t.Fatalf("second snapshot: %d loans, %v", l.lent, prev)
	}
	plain := Ack{Hops: hops}
	if own := plain.Snapshot(nil); len(own) != 2 || &own[0] == &hops[0] || own[0] != hops[0] {
		t.Fatalf("unlent snapshot = %v", own)
	}
}
