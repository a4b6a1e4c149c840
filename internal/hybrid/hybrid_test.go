package hybrid

import (
	"testing"

	"repro/internal/fluid"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// sink swallows delivered packets.
type sink struct{ pkts int }

func (s *sink) Receive(*packet.Packet) { s.pkts++ }

// oneLink couples one 10G port on a bare engine, exchanging every
// microsecond until horizon.
func oneLink(horizon sim.Time) (*sim.Engine, *link.Port, *sink, *Coupler, *LinkFluid) {
	eng := sim.New()
	rx := &sink{}
	pt := link.NewPort(eng, 10*units.Gbps, sim.Microsecond, rx)
	c := New(eng, sim.Microsecond, horizon)
	lf := c.LinkFor(pt, fluid.System{
		Tau: 16 * sim.Microsecond, Gamma: 0.9, Dt: 8 * sim.Microsecond, Law: fluid.Power,
	})
	return eng, pt, rx, c, lf
}

// The ledger moves in integer bytes and closes after every exchange:
// emitted − delivered − backlog is zero at each of 1,500 ticks, with a
// capped background, a greedy burst in the middle that builds a backlog,
// and packets sent between ticks that take serializer time away from the
// fluid side.
func TestLedgerClosesAfterEveryTick(t *testing.T) {
	const ticks = 1500
	horizon := sim.Time(ticks * sim.Microsecond)
	eng, pt, rx, c, lf := oneLink(horizon)
	lf.AddContribution(0, horizon, 1e9, false) // 8 Gbps offered
	lf.AddContribution(sim.Time(300*sim.Microsecond), sim.Time(600*sim.Microsecond), 1.25e9, true)
	sent := 0
	for at := sim.Time(500 * sim.Nanosecond); at < horizon; at = at.Add(3 * sim.Microsecond) {
		eng.At(at, func() { pt.Send(&packet.Packet{PayloadLen: 1000}) })
		sent++
	}
	c.Start()

	var lastE, lastD, peakBacklog int64
	for k := 1; k <= ticks; k++ {
		eng.RunUntil(sim.Time(sim.Duration(k) * sim.Microsecond))
		e, d, b := lf.Emitted(), lf.Delivered(), lf.Backlog()
		if e-d-b != 0 {
			t.Fatalf("tick %d: emitted %d − delivered %d − backlog %d = %d, want 0", k, e, d, b, e-d-b)
		}
		if e < lastE || d < lastD || b < 0 {
			t.Fatalf("tick %d: ledger went backwards: emitted %d→%d delivered %d→%d backlog %d", k, lastE, e, lastD, d, b)
		}
		if lf.carry < 0 || lf.carry >= 1 {
			t.Fatalf("tick %d: carry %g outside [0, 1)", k, lf.carry)
		}
		lastE, lastD, peakBacklog = e, d, max(peakBacklog, b)
	}
	if te, td, tb := c.Totals(); te != lastE || td != lastD || tb != lf.Backlog() {
		t.Fatalf("Totals() = %d/%d/%d, the one link says %d/%d/%d", te, td, tb, lastE, lastD, lf.Backlog())
	}
	if lastE == 0 || peakBacklog == 0 {
		t.Fatalf("degenerate run: emitted %d, peak backlog %d — the burst should queue", lastE, peakBacklog)
	}
	// Packets queue behind the fluid share of the serializer (up to 20×
	// stretched), so the last few are still in the port at the horizon.
	if rx.pkts < sent*9/10 {
		t.Fatalf("%d of %d interleaved packets delivered", rx.pkts, sent)
	}
	// Both fidelities share one line: what the fluid side was served plus
	// what the packets put on the wire fits the line's capacity.
	capacity := int64((10 * units.Gbps).BytesPerSec() * horizon.Seconds())
	if got := lastD + int64(pt.TxBytes()); got > capacity {
		t.Fatalf("fluid delivered %d + packet wire %d = %d bytes on a line that carries %d", lastD, pt.TxBytes(), got, capacity)
	}
}

// A demand-capped contribution worth 0.3 bytes an exchange interval is
// neither dropped (truncated to zero each tick) nor doubled: the carry
// holds the fraction, so the emitted total never exceeds what was offered
// and trails it by less than one byte at every tick.
func TestFractionalDemandIsCarried(t *testing.T) {
	const ticks, rate = 1000, 300_000.0 // bytes/s: 0.3 bytes per 1 µs tick
	horizon := sim.Time(ticks * sim.Microsecond)
	eng, _, _, c, lf := oneLink(horizon)
	lf.AddContribution(0, horizon, rate, false)
	c.Start()
	for k := 1; k <= ticks; k++ {
		now := sim.Time(sim.Duration(k) * sim.Microsecond)
		eng.RunUntil(now)
		offered := rate * now.Seconds()
		e := float64(lf.Emitted())
		const eps = 1e-6 // the carry is a float64 sum of 0.3s
		if e > offered+eps || offered-e >= 1+eps {
			t.Fatalf("tick %d: emitted %g of %g offered bytes", k, e, offered)
		}
		if lf.carry < 0 || lf.carry >= 1 {
			t.Fatalf("tick %d: carry %g outside [0, 1)", k, lf.carry)
		}
		if lf.Emitted()-lf.Delivered()-lf.Backlog() != 0 {
			t.Fatalf("tick %d: ledger open", k)
		}
	}
	if lf.Emitted() < 299 {
		t.Fatalf("emitted %d bytes of 300 offered", lf.Emitted())
	}
}

// A demand step strictly inside an exchange interval is integrated
// piecewise: a 1 byte/ns contribution over [250 ns, 1750 ns) offers 750
// bytes to each of the first two 1 µs intervals — sampling the rate at
// either end of a tick would say 0 or 1000.
func TestDemandStepInsideIntervalIsIntegrated(t *testing.T) {
	ns := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Nanosecond) }
	lf := &LinkFluid{}
	lf.AddContribution(ns(250), ns(1750), 1e9, false)
	for i, want := range []float64{750, 750, 0} {
		got, greedy := lf.demandBytes(ns(int64(i)*1000), ns(int64(i+1)*1000))
		if diff := got - want; diff < -1e-6 || diff > 1e-6 || greedy {
			t.Fatalf("interval %d: demandBytes = %g (greedy %v), want %g", i, got, greedy, want)
		}
	}
	// A greedy contribution that ends inside the interval still marks it.
	lf = &LinkFluid{}
	lf.AddContribution(0, ns(400), 1e9, true)
	if got, greedy := lf.demandBytes(0, ns(1000)); !greedy || got < 400-1e-6 || got > 400+1e-6 {
		t.Fatalf("demandBytes = %g greedy %v, want 400 greedy", got, greedy)
	}
}
