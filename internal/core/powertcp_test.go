package core

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func limits() cc.Limits {
	return cc.Limits{
		BaseRTT:  20 * sim.Microsecond,
		HostRate: 100 * units.Gbps,
		MSS:      1000,
	}
}

// hop builds a record for a 100G link.
func hop(q int64, tx uint64, at sim.Duration) telemetry.HopRecord {
	return telemetry.HopRecord{QLen: q, TxBytes: tx, TS: sim.Time(at), Rate: 100 * units.Gbps}
}

func TestInitStartsAtLineRate(t *testing.T) {
	p := New(Config{})
	p.Init(limits())
	if p.Cwnd() != 250_000 { // 100G × 20µs
		t.Fatalf("cwnd_init = %v, want BDP 250000", p.Cwnd())
	}
	if p.Rate() != 100*units.Gbps {
		t.Fatalf("initial rate = %v, want line rate", p.Rate())
	}
}

func TestNormPowerAtEquilibrium(t *testing.T) {
	// Queue empty and stable, link transmitting at line rate: λ = b,
	// ν = b·τ, so Γnorm = 1 and the window only creeps up by γβ (clamped
	// at the BDP cap).
	p := New(Config{})
	p.Init(limits())
	const dt = 10 * sim.Microsecond
	bBytes := uint64((100 * units.Gbps).Bytes(dt))
	p.OnAck(cc.Ack{AckSeq: 1000, SndNxt: 2000, Hops: []telemetry.HopRecord{hop(0, 0, 0)}})
	p.OnAck(cc.Ack{AckSeq: 2000, SndNxt: 3000, Hops: []telemetry.HopRecord{hop(0, bBytes, dt)}})
	if got := p.NormPowerSmoothed(); got < 0.99 || got > 1.01 {
		t.Fatalf("Γ_smooth = %v, want ≈1 at equilibrium", got)
	}
	if p.Cwnd() != 250_000 {
		t.Fatalf("cwnd moved off the cap at equilibrium: %v", p.Cwnd())
	}
}

func TestReactsToQueueBuildup(t *testing.T) {
	// Queue grows 0→100KB in 10µs while the link transmits at line rate:
	// Γnorm = ((q̇+µ)(q+bτ))/(b²τ) = 2.52, so the window must shrink.
	p := New(Config{})
	p.Init(limits())
	const dt = 10 * sim.Microsecond
	bBytes := uint64((100 * units.Gbps).Bytes(dt))
	p.OnAck(cc.Ack{AckSeq: 1000, SndNxt: 2000, Hops: []telemetry.HopRecord{hop(0, 0, 0)}})
	p.OnAck(cc.Ack{AckSeq: 2000, SndNxt: 3000, Hops: []telemetry.HopRecord{hop(100_000, bBytes, dt)}})
	// Smoothed power: (1·10µs + 2.52·10µs)/20µs = 1.76.
	if got := p.NormPowerSmoothed(); got < 1.7 || got > 1.82 {
		t.Fatalf("Γ_smooth = %v, want ≈1.76", got)
	}
	if p.Cwnd() >= 250_000 {
		t.Fatalf("cwnd did not decrease under congestion: %v", p.Cwnd())
	}
}

func TestReactsToQueueDrainWithSpareCapacity(t *testing.T) {
	// Queue draining and link under-utilized: power below base → window
	// grows (multiplicative increase toward the freed bandwidth), up to
	// the BDP cap.
	p := New(Config{})
	p.Init(limits())
	p.setCwnd(50_000) // start well below BDP
	p.oldCwnd = 50_000
	const dt = 10 * sim.Microsecond
	half := uint64((50 * units.Gbps).Bytes(dt)) // half line rate
	p.OnAck(cc.Ack{AckSeq: 1000, SndNxt: 2000, Hops: []telemetry.HopRecord{hop(50_000, 0, 0)}})
	p.OnAck(cc.Ack{AckSeq: 2000, SndNxt: 3000, Hops: []telemetry.HopRecord{hop(0, half, dt)}})
	if p.Cwnd() <= 50_000 {
		t.Fatalf("cwnd did not grow with spare capacity: %v", p.Cwnd())
	}
	if p.Cwnd() > 250_000 {
		t.Fatalf("cwnd %v grew past the BDP cap 250000", p.Cwnd())
	}
}

func TestDistinguishesFig2cCases(t *testing.T) {
	// Figure 2c: with the same queue length, a draining queue (case 2)
	// must trigger a weaker reaction than one filling at 8× (case 3) —
	// the distinction voltage-based CC cannot make.
	mkNorm := func(qStart, qEnd int64) float64 {
		p := New(Config{})
		p.Init(limits())
		const dt = 5 * sim.Microsecond
		b := uint64((100 * units.Gbps).Bytes(dt))
		p.OnAck(cc.Ack{AckSeq: 1, SndNxt: 2, Hops: []telemetry.HopRecord{hop(qStart, 0, 0)}})
		p.OnAck(cc.Ack{AckSeq: 2, SndNxt: 3, Hops: []telemetry.HopRecord{hop(qEnd, b, dt)}})
		return p.NormPowerSmoothed()
	}
	fill := mkNorm(100_000, 500_000)  // filling fast
	drain := mkNorm(500_000, 100_000) // draining from the same level
	if fill <= drain {
		t.Fatalf("power CC failed to separate filling (%v) from draining (%v)", fill, drain)
	}
}

func TestPerRTTGate(t *testing.T) {
	p := New(Config{UpdatePerRTT: true})
	p.Init(limits())
	const dt = sim.Microsecond
	b := uint64((100 * units.Gbps).Bytes(dt))
	// Prime, then two congested acks inside the same RTT window: only the
	// first may update.
	p.OnAck(cc.Ack{AckSeq: 1000, SndNxt: 100_000, Hops: []telemetry.HopRecord{hop(0, 0, 0)}})
	p.OnAck(cc.Ack{AckSeq: 2000, SndNxt: 100_000, Hops: []telemetry.HopRecord{hop(400_000, b, dt)}})
	w1 := p.Cwnd()
	p.OnAck(cc.Ack{AckSeq: 3000, SndNxt: 100_000, Hops: []telemetry.HopRecord{hop(800_000, 2*b, 2*dt)}})
	if p.Cwnd() != w1 {
		t.Fatalf("window updated twice within an RTT: %v → %v", w1, p.Cwnd())
	}
}

func TestLossHalvesWindow(t *testing.T) {
	for _, p := range []cc.Algorithm{New(Config{}), NewTheta(Config{})} {
		p.Init(limits())
		p.OnLoss(0)
		if p.Cwnd() != 125_000 {
			t.Fatalf("%T: cwnd after loss = %v, want 125000", p, p.Cwnd())
		}
		for i := 0; i < 30; i++ {
			p.OnLoss(sim.Time(i))
		}
		if p.Cwnd() != minCwnd {
			t.Fatalf("%T: repeated loss left cwnd %v, want the %v-byte floor", p, p.Cwnd(), minCwnd)
		}
	}
}

func TestIgnoresBrokenSamples(t *testing.T) {
	p := New(Config{})
	p.Init(limits())
	w := p.Cwnd()
	p.OnAck(cc.Ack{})                                                        // no INT
	p.OnAck(cc.Ack{Hops: []telemetry.HopRecord{hop(0, 0, 5)}})               // prime
	p.OnAck(cc.Ack{Hops: []telemetry.HopRecord{hop(0, 0, 5)}})               // dt = 0
	p.OnAck(cc.Ack{Hops: []telemetry.HopRecord{hop(0, 0, 4), hop(0, 0, 4)}}) // hop count change
	if p.Cwnd() != w {
		t.Fatalf("window moved on degenerate input: %v", p.Cwnd())
	}
}

func TestThetaPowerTCPBasics(t *testing.T) {
	p := NewTheta(Config{})
	p.Init(limits())
	if p.Cwnd() != 250_000 {
		t.Fatalf("θ cwnd_init = %v", p.Cwnd())
	}
	// RTT at base and flat: Γnorm = (0+1)·τ/τ = 1 → smooth stays 1.
	now := sim.Time(0)
	p.OnAck(cc.Ack{Now: now, RTT: 20 * sim.Microsecond, AckSeq: 1, SndNxt: 2})
	now = now.Add(10 * sim.Microsecond)
	p.OnAck(cc.Ack{Now: now, RTT: 20 * sim.Microsecond, AckSeq: 2, SndNxt: 3})
	if got := p.NormPowerSmoothed(); got < 0.99 || got > 1.01 {
		t.Fatalf("θ Γ_smooth = %v, want 1", got)
	}
	// Rising RTT (queue building): power above 1 and window shrinks.
	now = now.Add(10 * sim.Microsecond)
	p.OnAck(cc.Ack{Now: now, RTT: 40 * sim.Microsecond, AckSeq: 20_000, SndNxt: 30_000})
	if p.NormPowerSmoothed() <= 1 {
		t.Fatalf("θ Γ_smooth = %v after RTT jump, want >1", p.NormPowerSmoothed())
	}
	if p.Cwnd() >= 250_000 {
		t.Fatalf("θ window did not shrink: %v", p.Cwnd())
	}
}

func TestThetaOncePerRTTGate(t *testing.T) {
	p := NewTheta(Config{})
	p.Init(limits())
	now := sim.Time(0)
	p.OnAck(cc.Ack{Now: now, RTT: 20 * sim.Microsecond, AckSeq: 1, SndNxt: 500_000})
	now = now.Add(5 * sim.Microsecond)
	p.OnAck(cc.Ack{Now: now, RTT: 60 * sim.Microsecond, AckSeq: 2, SndNxt: 500_000})
	w := p.Cwnd()
	now = now.Add(5 * sim.Microsecond)
	// AckSeq below lastUpdated (=500000): smoothing continues but the
	// window must not move.
	p.OnAck(cc.Ack{Now: now, RTT: 80 * sim.Microsecond, AckSeq: 3, SndNxt: 500_000})
	if p.Cwnd() != w {
		t.Fatalf("θ window updated twice in one RTT")
	}
}

func TestGammaZeroDefaultsApplied(t *testing.T) {
	p := New(Config{})
	p.Init(limits())
	if p.cfg.Gamma != 0.9 {
		t.Fatalf("γ default = %v, want 0.9", p.cfg.Gamma)
	}
	wantBeta := 250_000.0 / 10
	if p.beta != wantBeta {
		t.Fatalf("β default = %v, want %v", p.beta, wantBeta)
	}
}
