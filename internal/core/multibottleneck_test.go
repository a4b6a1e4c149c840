package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/units"
)

// parkingLot builds a 3-switch chain (2 inter-switch 25G links) with a
// through pair and a cross pair per link.
func parkingLot() *topo.Network {
	return topo.ParkingLot(topo.ParkingLotConfig{
		Switches: 3,
		Opts: topo.Options{
			Hosts: topo.TransportHosts(transport.Config{BaseRTT: 20 * sim.Microsecond}),
			INT:   true,
		},
	})
}

// §3.5: on a multi-bottleneck path the INT law reacts to the most
// bottlenecked hop. The through flow competes with one cross flow on
// each link; fair share of each 25G link is 12.5G, and the through flow
// must neither starve nor overrun it.
func TestPowerTCPMultiBottleneckShare(t *testing.T) {
	net := parkingLot()
	through := net.TransportHost(0)
	thrDst := net.TransportHost(1)
	through.StartFlow(net.NextFlowID(), thrDst.ID(), transport.Unbounded,
		core.New(core.Config{}), 0)
	// Cross flow on link 0 (host2→host3) and link 1 (host4→host5).
	net.TransportHost(2).StartFlow(net.NextFlowID(), net.HostID(3), transport.Unbounded,
		core.New(core.Config{}), 0)
	net.TransportHost(4).StartFlow(net.NextFlowID(), net.HostID(5), transport.Unbounded,
		core.New(core.Config{}), 0)

	net.Eng.RunUntil(sim.Time(4 * sim.Millisecond))
	start := thrDst.ReceivedTotal()
	net.Eng.RunUntil(sim.Time(7 * sim.Millisecond))
	rate := rateFromBytes(thrDst.ReceivedTotal()-start, 3*sim.Millisecond)
	if rate < 7*units.Gbps || rate > 16*units.Gbps {
		t.Fatalf("through flow rate = %v, want ≈12.5G fair share", rate)
	}
	// The cross flows take the rest of their links.
	cross := net.TransportHost(3).ReceivedTotal() + net.TransportHost(5).ReceivedTotal()
	if cross == 0 {
		t.Fatal("cross flows starved")
	}
}

// The window must track the most-congested hop: with the second link
// far slower, PowerTCP's through flow converges to that link's capacity
// without piling a queue on the first.
func TestPowerTCPTracksWorstHop(t *testing.T) {
	net := topo.ParkingLot(topo.ParkingLotConfig{
		Switches: 3,
		LinkRate: 25 * units.Gbps,
		Opts: topo.Options{
			Hosts: topo.TransportHosts(transport.Config{BaseRTT: 20 * sim.Microsecond}),
			INT:   true,
		},
	})
	// Congest only link 1 with a cross flow; link 0 stays uncontended.
	dst := net.TransportHost(1)
	net.TransportHost(0).StartFlow(net.NextFlowID(), dst.ID(), transport.Unbounded,
		core.New(core.Config{}), 0)
	net.TransportHost(4).StartFlow(net.NextFlowID(), net.HostID(5), transport.Unbounded,
		core.New(core.Config{}), 0)
	net.Eng.RunUntil(sim.Time(5 * sim.Millisecond))
	// Link 0's queue (switch 0 → switch 1 port) must stay small: the
	// through flow is limited by link 1, not queuing at link 0.
	q0 := net.Switches[0].Ports()[0].QueueBytes()
	if q0 > 100_000 {
		t.Fatalf("queue piled on the uncongested hop: %dB", q0)
	}
}
