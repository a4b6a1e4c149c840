package transport_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/units"
)

func star(n int, bufPerGbps int64) *topo.Network {
	return topo.Star(topo.StarConfig{
		Hosts:    n,
		HostRate: 25 * units.Gbps,
		Opts: topo.Options{
			Hosts:         topo.TransportHosts(transport.Config{BaseRTT: 10 * sim.Microsecond}),
			BufferPerGbps: bufPerGbps,
			INT:           true,
		},
	})
}

func TestSingleFlowCompletes(t *testing.T) {
	net := star(2, 0)
	src, dst := net.TransportHost(0), net.TransportHost(1)
	var done transport.Completion
	src.OnFlowDone = func(c transport.Completion) { done = c }
	size := int64(1 << 20)
	f := src.StartFlow(net.NextFlowID(), dst.ID(), size, &cc.FixedWindow{}, 0)
	net.Eng.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	want := transport.Completion{ID: f.ID, Src: src.ID(), Dst: dst.ID(), Size: size, Start: f.StartAt, FCT: f.FCT()}
	if done != want {
		t.Fatalf("completion %+v, want %+v", done, want)
	}
	if got := dst.ReceivedBytes(f.ID); got != size {
		t.Fatalf("receiver got %d bytes, want %d", got, size)
	}
	// Ideal FCT at 25G for 1MiB ≈ size/rate + rtt; the fixed window is a
	// full BDP so the flow should finish within 2x ideal.
	ideal := (25 * units.Gbps).TxTime(size+size/1000*48) + net.BaseRTT
	if f.FCT() > 2*ideal {
		t.Fatalf("FCT %v > 2×ideal %v", f.FCT(), 2*ideal)
	}
	if f.Retransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", f.Retransmits)
	}
}

func TestManyFlowsAllComplete(t *testing.T) {
	net := star(8, 0)
	var finished int
	size := int64(200_000)
	for i := 1; i < 8; i++ {
		src := net.TransportHost(i)
		src.OnFlowDone = func(transport.Completion) { finished++ }
		src.StartFlow(net.NextFlowID(), net.HostID(0), size, &cc.FixedWindow{}, 0)
	}
	net.Eng.Run()
	if finished != 7 {
		t.Fatalf("finished = %d, want 7", finished)
	}
	if got := net.TransportHost(0).ReceivedTotal(); got != 7*size {
		t.Fatalf("receiver total = %d, want %d", got, 7*size)
	}
}

func TestLossRecoveryUnderTinyBuffer(t *testing.T) {
	// A buffer of ~13KB per port forces drops during an 8:1 incast with
	// full-BDP fixed windows; every flow must still complete via fast
	// retransmit / RTO.
	net := star(9, 512) // 512B per Gbps → 25G port ≈ 13KB shared
	var finished int
	var flows []*transport.Flow
	for i := 1; i < 9; i++ {
		src := net.TransportHost(i)
		src.OnFlowDone = func(transport.Completion) { finished++ }
		flows = append(flows, src.StartFlow(net.NextFlowID(), net.HostID(0), 300_000, &cc.FixedWindow{}, 0))
	}
	net.Eng.Run()
	var rtx uint64
	for _, f := range flows {
		rtx += f.Retransmits
	}
	if finished != 8 {
		t.Fatalf("finished = %d, want 8", finished)
	}
	if rtx == 0 {
		t.Fatal("expected retransmissions under a tiny buffer")
	}
	if drops := net.Switches[0].Dropped(); drops == 0 {
		t.Fatal("expected admission drops")
	}
}

func TestINTEchoedToSender(t *testing.T) {
	net := star(2, 0)
	src, dst := net.TransportHost(0), net.TransportHost(1)
	probe := &hopCounter{}
	src.StartFlow(net.NextFlowID(), dst.ID(), 100_000, probe, 0)
	net.Eng.Run()
	if probe.maxHops < 2 {
		t.Fatalf("INT hops on acks = %d, want ≥2 (data + ack direction)", probe.maxHops)
	}
	if probe.acks == 0 {
		t.Fatal("no acks observed")
	}
}

// hopCounter is a fixed-window algorithm that records INT arrival.
type hopCounter struct {
	cc.FixedWindow
	acks    int
	maxHops int
}

func (h *hopCounter) OnAck(a cc.Ack) {
	h.acks++
	if len(a.Hops) > h.maxHops {
		h.maxHops = len(a.Hops)
	}
	h.FixedWindow.OnAck(a)
}

func TestUnboundedFlowKeepsSending(t *testing.T) {
	net := star(2, 0)
	src, dst := net.TransportHost(0), net.TransportHost(1)
	f := src.StartFlow(net.NextFlowID(), dst.ID(), transport.Unbounded, &cc.FixedWindow{}, 0)
	net.Eng.RunUntil(sim.Time(2 * sim.Millisecond))
	got := dst.ReceivedBytes(f.ID)
	// 25 Gbps for 2ms ≈ 6.25MB of payload (minus header overhead).
	if got < 5_000_000 {
		t.Fatalf("unbounded flow moved only %d bytes in 2ms", got)
	}
	if f.Done {
		t.Fatal("unbounded flow marked done")
	}
}

func TestFlowPacingSpacesPackets(t *testing.T) {
	// A fixed window of half a BDP paces at half line rate: receiving
	// 100KB should take about twice the line-rate time.
	net := star(2, 0)
	src, dst := net.TransportHost(0), net.TransportHost(1)
	halfBDP := float64((25 * units.Gbps).BDP(10*sim.Microsecond)) / 2
	var fct sim.Duration
	src.OnFlowDone = func(c transport.Completion) { fct = c.FCT }
	src.StartFlow(net.NextFlowID(), dst.ID(), 100_000, &cc.FixedWindow{Window: halfBDP}, 0)
	net.Eng.Run()
	lineTime := (25 * units.Gbps).TxTime(100_000)
	if fct < lineTime*3/2 {
		t.Fatalf("FCT %v too fast for half-rate pacing (line time %v)", fct, lineTime)
	}
	_ = packet.MSS
}
