package swtch_test

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// A fat-tree switch keeps one table entry per ToR plus one per host of
// its own, so an aggregation or core switch's table does not grow with
// the servers behind each ToR, and a ToR's grows only by its own.
func TestFabricTableIsPerEdgePlusOwnHosts(t *testing.T) {
	for _, servers := range []int{2, 40} {
		cfg := topo.FatTreeConfig{ServersPerTor: servers, Opts: topo.Options{
			Hosts: topo.TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond}),
		}}
		net := topo.FatTree(cfg)
		racks := cfg.Racks()
		for si, sw := range net.Switches {
			want := racks // aggregation and core
			if si < racks {
				want += servers // a ToR's own hosts
			}
			if got := sw.TableLen(); got != want {
				t.Fatalf("%d servers a ToR: switch %d has %d entries, want %d (%d hosts)", servers, si, got, want, len(net.Hosts))
			}
		}
	}
}

// On a fabric switch a node ID that names no host — a switch's, a
// negative one, one past the last host — has no route.
func TestFabricRouteOfNoHostIsNil(t *testing.T) {
	net := topo.FatTree(topo.FatTreeConfig{ServersPerTor: 2, Opts: topo.Options{
		Hosts: topo.TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond}),
	}})
	last := net.HostID(len(net.Hosts) - 1)
	for _, sw := range net.Switches {
		if sw.Route(last) == nil {
			t.Fatalf("switch %d has no route to the last host %d", sw.NodeID(), last)
		}
		for _, dst := range []packet.NodeID{net.Switches[0].NodeID(), sw.NodeID(), -1, -1 << 31, last + 1} {
			if r := sw.Route(dst); r != nil {
				t.Fatalf("switch %d: Route(%d) = %v, want nil", sw.NodeID(), dst, r)
			}
		}
	}
}
