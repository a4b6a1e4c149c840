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

// blackhole drops every packet while armed; used to exercise RTO-driven
// recovery (fast retransmit cannot fire when nothing returns).
type blackhole struct {
	inner   topo.Node
	dropped int
	armed   bool
}

func (b *blackhole) Receive(p *packet.Packet) {
	if b.armed {
		b.dropped++
		return
	}
	b.inner.Receive(p)
}

func TestRTORecoversFromBlackhole(t *testing.T) {
	// 40·τ is 400 µs here, so the RTO is its 1 ms floor: the 2 ms
	// blackhole below spans two timeouts.
	if rto := transport.RTO(10 * sim.Microsecond); rto != sim.Millisecond {
		t.Fatalf("RTO at τ = 10 µs is %v, want the 1 ms floor", rto)
	}
	net := topo.Star(topo.StarConfig{
		Hosts:    2,
		HostRate: 25 * units.Gbps,
		Opts: topo.Options{
			Hosts: topo.TransportHosts(transport.Config{BaseRTT: 10 * sim.Microsecond}),
		},
	})
	src, dst := net.TransportHost(0), net.TransportHost(1)
	// Interpose the blackhole on the switch port facing the receiver.
	hole := &blackhole{inner: dst}
	net.Switches[0].Ports()[1].Peer = hole

	f := src.StartFlow(net.NextFlowID(), dst.ID(), 400_000, &cc.FixedWindow{}, 0)

	// Let traffic flow, then blackhole everything for 2 ms, then heal.
	net.Eng.At(sim.Time(50*sim.Microsecond), func() { hole.armed = true })
	net.Eng.At(sim.Time(2050*sim.Microsecond), func() { hole.armed = false })
	net.Eng.RunUntil(sim.Time(50 * sim.Millisecond))
	net.Eng.Run()

	if !f.Done {
		t.Fatalf("flow never recovered from blackhole (inflight=%d una=%d nxt=%d rtx=%d)",
			f.Inflight(), f.SndUna(), f.SndNxt(), f.Retransmits)
	}
	if hole.dropped == 0 {
		t.Fatal("blackhole dropped nothing — test is vacuous")
	}
	if f.Retransmits == 0 {
		t.Fatal("recovery without retransmissions is impossible here")
	}
	if got := dst.ReceivedBytes(f.ID); got < 400_000 {
		t.Fatalf("receiver got %d contiguous-counted bytes", got)
	}
}

func TestReorderingToleratedWithFastRtxDisabled(t *testing.T) {
	// With DupAckThreshold < 0 (the RDCN configuration), heavy dup-ACKs
	// from reordering must not trigger spurious retransmissions.
	net := topo.Star(topo.StarConfig{
		Hosts:    2,
		HostRate: 25 * units.Gbps,
		Opts: topo.Options{
			Hosts: topo.TransportHosts(transport.Config{
				BaseRTT:         10 * sim.Microsecond,
				DupAckThreshold: -1,
			}),
		},
	})
	src, dst := net.TransportHost(0), net.TransportHost(1)
	// A reorderer that delays every 20th packet by 30µs.
	n := 0
	delayer := topo.Node(dst)
	reorder := receiverFunc(func(p *packet.Packet) {
		n++
		if p.Kind == packet.Data && n%20 == 0 {
			pp := p
			net.Eng.After(30*sim.Microsecond, func() { delayer.Receive(pp) })
			return
		}
		delayer.Receive(p)
	})
	net.Switches[0].Ports()[1].Peer = reorder

	f := src.StartFlow(net.NextFlowID(), dst.ID(), 300_000, &cc.FixedWindow{}, 0)
	net.Eng.Run()
	if !f.Done {
		t.Fatal("flow did not complete under reordering")
	}
	if f.Retransmits != 0 {
		t.Fatalf("spurious retransmissions with fast-rtx disabled: %d", f.Retransmits)
	}
}

type receiverFunc func(p *packet.Packet)

func (f receiverFunc) Receive(p *packet.Packet) { f(p) }
