package topo_test

import (
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/homa"
	"repro/internal/packet"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/units"
)

func opts() topo.Options {
	return topo.Options{
		Hosts: topo.TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond}),
		INT:   true,
	}
}

func smallFatTree() (*topo.Network, topo.FatTreeConfig) {
	cfg := topo.FatTreeConfig{ServersPerTor: 4, Opts: opts()}
	return topo.FatTree(cfg), cfg
}

func TestFatTreeShape(t *testing.T) {
	net, _ := smallFatTree()
	if len(net.Hosts) != 4*2*4 { // pods × tors × servers
		t.Fatalf("hosts = %d", len(net.Hosts))
	}
	if len(net.Switches) != 8+8+2 { // tors + aggs + cores
		t.Fatalf("switches = %d", len(net.Switches))
	}
	// ToR port count: servers + aggs-per-pod.
	if got := len(net.Switches[0].Ports()); got != 4+2 {
		t.Fatalf("ToR ports = %d", got)
	}
	// Core port count: one per agg.
	if got := len(net.Switches[17].Ports()); got != 8 {
		t.Fatalf("core ports = %d", got)
	}
}

func TestFatTreeRoutesEverywhere(t *testing.T) {
	net, _ := smallFatTree()
	for si, sw := range net.Switches {
		for hi := range net.Hosts {
			if r := sw.Route(net.HostID(hi)); len(r) == 0 {
				t.Fatalf("switch %d has no route to host %d", si, hi)
			}
		}
	}
	// A ToR must have multiple (ECMP) uplink candidates for a host in a
	// different pod.
	remote := net.HostID(len(net.Hosts) - 1)
	if r := net.Switches[0].Route(remote); len(r) < 2 {
		t.Fatalf("ToR 0 has %d uplink candidates for remote pod, want ≥2", len(r))
	}
	// ...and exactly one (the direct port) for its own server.
	if r := net.Switches[0].Route(net.HostID(0)); len(r) != 1 {
		t.Fatalf("ToR 0 direct route candidates = %d", len(r))
	}
}

func TestFatTreeBuffersSized(t *testing.T) {
	cfg := topo.FatTreeConfig{ServersPerTor: 4, Opts: opts()}
	cfg.Opts.BufferPerGbps = topo.TofinoBufferPerGbps
	net := topo.FatTree(cfg)
	// ToR: 4×25G + 2×100G = 300G → 300 × 10KiB.
	want := int64(300) * topo.TofinoBufferPerGbps
	if got := net.Switches[0].Shared().Total; got != want {
		t.Fatalf("ToR buffer = %d, want %d", got, want)
	}
}

func TestFatTreeEndToEnd(t *testing.T) {
	// Cross-pod transfer completes and traverses five switch hops of INT
	// in the data direction.
	net, cfg := smallFatTree()
	src := net.TransportHost(0)
	dstIdx := len(net.Hosts) - 1
	dst := net.TransportHost(dstIdx)
	if topo.TorOf(cfg, 0) == topo.TorOf(cfg, dstIdx) {
		t.Fatal("test hosts share a rack")
	}
	var done bool
	src.OnFlowDone = func(transport.Completion) { done = true }
	src.StartFlow(net.NextFlowID(), dst.ID(), 1<<20, &cc.FixedWindow{}, 0)
	net.Eng.Run()
	if !done {
		t.Fatal("cross-pod flow did not finish")
	}
	if got := dst.ReceivedBytes(1); got != 1<<20 {
		t.Fatalf("received %d", got)
	}
}

func TestSameRackStaysLocal(t *testing.T) {
	net, _ := smallFatTree()
	src, dst := net.TransportHost(0), net.TransportHost(1)
	src.StartFlow(net.NextFlowID(), dst.ID(), 100_000, &cc.FixedWindow{}, 0)
	net.Eng.Run()
	// Only the shared ToR may have transmitted; aggs and cores stay idle.
	for si := 8; si < len(net.Switches); si++ {
		for _, pt := range net.Switches[si].Ports() {
			if pt.TxPackets() != 0 {
				t.Fatalf("non-ToR switch %d transmitted", si)
			}
		}
	}
}

func TestDumbbellBottleneck(t *testing.T) {
	net := topo.Dumbbell(topo.DumbbellConfig{
		Left: 2, Right: 2,
		HostRate:       100 * units.Gbps,
		BottleneckRate: 25 * units.Gbps,
		Opts:           opts(),
	})
	if len(net.Hosts) != 4 || len(net.Switches) != 2 {
		t.Fatalf("shape: %d hosts, %d switches", len(net.Hosts), len(net.Switches))
	}
	src, dst := net.TransportHost(0), net.TransportHost(2)
	src.StartFlow(net.NextFlowID(), dst.ID(), 500_000, &cc.FixedWindow{}, 0)
	net.Eng.Run()
	if dst.ReceivedTotal() != 500_000 {
		t.Fatalf("received %d", dst.ReceivedTotal())
	}
	if net.BottleneckPort().TxBytes() == 0 {
		t.Fatal("bottleneck port unused")
	}
}

func TestLeafSpineShapeAndECMP(t *testing.T) {
	net := topo.LeafSpine(topo.LeafSpineConfig{
		Leaves: 4, Spines: 3, ServersPerLeaf: 2, Opts: opts(),
	})
	if len(net.Hosts) != 8 || len(net.Switches) != 7 {
		t.Fatalf("shape: %d hosts, %d switches", len(net.Hosts), len(net.Switches))
	}
	// Cross-leaf routes have one ECMP candidate per spine.
	remote := net.HostID(7)
	if r := net.Switches[0].Route(remote); len(r) != 3 {
		t.Fatalf("leaf 0 ECMP candidates = %d, want 3", len(r))
	}
	// End to end across leaves.
	src, dst := net.TransportHost(0), net.TransportHost(7)
	src.StartFlow(net.NextFlowID(), dst.ID(), 300_000, &cc.FixedWindow{}, 0)
	net.Eng.Run()
	if dst.ReceivedTotal() != 300_000 {
		t.Fatalf("delivered %d", dst.ReceivedTotal())
	}
}

func TestParkingLotShape(t *testing.T) {
	net := topo.ParkingLot(topo.ParkingLotConfig{Switches: 4, Opts: opts()})
	// 4 switches, 2 through hosts + 3 cross pairs = 8 hosts.
	if len(net.Switches) != 4 || len(net.Hosts) != 8 {
		t.Fatalf("shape: %d switches, %d hosts", len(net.Switches), len(net.Hosts))
	}
	// Through flow must traverse every inter-switch link.
	src, dst := net.TransportHost(0), net.TransportHost(1)
	src.StartFlow(net.NextFlowID(), dst.ID(), 200_000, &cc.FixedWindow{}, 0)
	net.Eng.Run()
	if dst.ReceivedTotal() != 200_000 {
		t.Fatalf("through flow delivered %d", dst.ReceivedTotal())
	}
	for i := 0; i+1 < 4; i++ {
		// Port 0 of each non-last switch faces the next switch.
		if net.Switches[i].Ports()[0].TxPackets() == 0 && i > 0 {
			t.Fatalf("link %d unused by through flow", i)
		}
	}
}

func TestBaseRTTSanity(t *testing.T) {
	net, _ := smallFatTree()
	// Propagation alone is 2×14µs; computed base RTT must exceed it but
	// stay within ~2× (serialization headroom only).
	lo := sim.Duration(28 * sim.Microsecond)
	if net.BaseRTT < lo || net.BaseRTT > 2*lo {
		t.Fatalf("BaseRTT = %v, want within [%v, %v]", net.BaseRTT, lo, 2*lo)
	}
}

func TestTorUplinkPortsFaceAggregation(t *testing.T) {
	net, cfg := smallFatTree()
	nTors := cfg.WithDefaults().Pods * cfg.WithDefaults().TorsPerPod
	for tor := 0; tor < nTors; tor++ {
		up := net.TorUplinkPorts(tor)
		if len(up) != 2 { // AggsPerPod
			t.Fatalf("ToR %d uplinks = %v, want 2", tor, up)
		}
		// Ports are created servers-first, so uplinks are the tail ports.
		for i, pi := range up {
			if pi != 4+i {
				t.Fatalf("ToR %d uplink ports = %v, want [4 5]", tor, up)
			}
		}
		// Uplink ports run at fabric rate, host ports at host rate.
		ports := net.Switches[tor].Ports()
		for _, pi := range up {
			if ports[pi].Rate != 100*units.Gbps {
				t.Fatalf("uplink port rate = %v", ports[pi].Rate)
			}
		}
		if ports[0].Rate != 25*units.Gbps {
			t.Fatalf("host port rate = %v", ports[0].Rate)
		}
	}
}

// pathSpread returns the distinct egress ports, sorted, that a switch's
// installed table uses across dsts.
func pathSpread(table func(dst packet.NodeID) []int, dsts []packet.NodeID) []int {
	var used []int
	for _, d := range dsts {
		used = append(used, table(d)...)
	}
	slices.Sort(used)
	return slices.Compact(used)
}

// Every ToR's installed ECMP tables must cover all of its uplinks for
// remote-pod destinations — the "no silent single-path fallback" guard.
func TestFatTreeECMPTablesCoverAllUplinks(t *testing.T) {
	net, cfg := smallFatTree()
	c := cfg.WithDefaults()
	nTors := c.Pods * c.TorsPerPod
	for tor := 0; tor < nTors; tor++ {
		var remote []packet.NodeID
		for hi := range net.Hosts {
			if topo.TorOf(cfg, hi) != tor {
				remote = append(remote, net.HostID(hi))
			}
		}
		spread := pathSpread(net.Switches[tor].Route, remote)
		up := net.TorUplinkPorts(tor)
		if len(spread) != len(up) {
			t.Fatalf("ToR %d tables use ports %v, want all uplinks %v", tor, spread, up)
		}
	}
}

// A permutation-style workload must put traffic on every ToR uplink
// under ECMP — and on exactly one per ToR under single-path routing.
func TestFatTreeECMPSpreadsPermutationTraffic(t *testing.T) {
	run := func(strategy route.Strategy) (used, total int) {
		o := opts()
		o.Routing = strategy
		cfg := topo.FatTreeConfig{ServersPerTor: 4, Opts: o}
		net := topo.FatTree(cfg)
		n := len(net.Hosts)
		// Each host sends 4 flows to its cross-pod partner: distinct flow
		// IDs hash independently, exercising the uplink choice densely.
		for i := 0; i < n; i++ {
			dst := net.TransportHost((i + n/2) % n)
			src := net.TransportHost(i)
			for k := 0; k < 4; k++ {
				src.StartFlow(net.NextFlowID(), dst.ID(), 20_000, &cc.FixedWindow{}, 0)
			}
		}
		net.Eng.Run()
		c := cfg.WithDefaults()
		for tor := 0; tor < c.Pods*c.TorsPerPod; tor++ {
			for _, pi := range net.TorUplinkPorts(tor) {
				total++
				if net.Switches[tor].Ports()[pi].TxPackets() > 0 {
					used++
				}
			}
		}
		return used, total
	}

	used, total := run(route.ECMP{})
	if used != total {
		t.Fatalf("ECMP left uplinks idle: %d/%d carried traffic", used, total)
	}
	used, total = run(route.SinglePath{})
	if used >= total {
		t.Fatalf("single-path used every uplink (%d/%d): spreading detector is blind", used, total)
	}
}

func TestLeafSpineSpineRatesOverride(t *testing.T) {
	cfg := topo.LeafSpineConfig{
		Leaves: 2, Spines: 2, ServersPerLeaf: 2,
		SpineRates: []units.BitRate{100 * units.Gbps, 50 * units.Gbps},
		Opts:       opts(),
	}
	net := topo.LeafSpine(cfg)
	ports := net.Switches[cfg.LeafSwitch(0)].Ports()
	// Ports: 2 servers, then one uplink per spine.
	if ports[2].Rate != 100*units.Gbps || ports[3].Rate != 50*units.Gbps {
		t.Fatalf("uplink rates = %v, %v", ports[2].Rate, ports[3].Rate)
	}
	if net.Switches[cfg.SpineSwitch(1)].Ports()[0].Rate != 50*units.Gbps {
		t.Fatal("spine-side rate does not match its override")
	}
}

// Cutting a leaf-spine link and reconverging must keep end-to-end
// transfers working through the surviving spine.
func TestNetworkSurvivesLinkFailure(t *testing.T) {
	cfg := topo.LeafSpineConfig{Leaves: 2, Spines: 2, ServersPerLeaf: 1, Opts: opts()}
	net := topo.LeafSpine(cfg)
	net.Router.FailLink(cfg.LeafSwitch(0), cfg.SpineSwitch(0))
	net.Router.FailLink(cfg.LeafSwitch(1), cfg.SpineSwitch(0))
	net.Router.Rebuild()
	src, dst := net.TransportHost(0), net.TransportHost(1)
	src.StartFlow(net.NextFlowID(), dst.ID(), 200_000, &cc.FixedWindow{}, 0)
	net.Eng.Run()
	if got := dst.ReceivedTotal(); got != 200_000 {
		t.Fatalf("transfer over surviving spine delivered %d", got)
	}
	if net.Switches[cfg.SpineSwitch(0)].Ports()[0].TxPackets() != 0 {
		t.Fatal("failed spine still forwarded traffic")
	}
}

// Reconvergence in steady state costs no memory: a Rebuild that changes
// nothing allocates nothing, and once a failure and its repair have each
// been seen, further cycles allocate nothing and leave every (switch,
// destination) pointing at the very group it pointed at before — the
// switches found each list again instead of storing it anew.
func TestRebuildSteadyStateAllocatesNothing(t *testing.T) {
	net, cfg := smallFatTree()
	c := cfg.WithDefaults()
	tor, agg := 0, c.Pods*c.TorsPerPod // ToR 0 and the first agg of its pod
	if allocs := testing.AllocsPerRun(5, net.Router.Rebuild); allocs != 0 {
		t.Fatalf("a Rebuild that changes nothing allocates %.0f times, want 0", allocs)
	}
	cycle := func() {
		net.Router.FailLink(tor, agg)
		net.Router.Rebuild()
		net.Router.RestoreLink(tor, agg)
		net.Router.Rebuild()
	}
	groups := func() (heads []*int) {
		for _, sw := range net.Switches {
			for hi := range net.Hosts {
				heads = append(heads, &sw.Route(net.HostID(hi))[0])
			}
		}
		return heads
	}
	cycle()
	before := groups()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("a repeated fail/restore cycle allocates %.0f times, want 0", allocs)
	}
	if after := groups(); !slices.Equal(before, after) {
		t.Fatal("repeated fail/restore cycles moved table entries to new groups")
	}
}

// A switch cut off from a destination keeps its last table entry, as a
// real switch whose control plane lost the peer would: Route still shows
// the old ports, and a packet forwarded there dies on the dead wire and
// is counted lost — no panic on a missing route.
func TestPartitionedSwitchKeepsStaleRouteAndLosesPackets(t *testing.T) {
	cfg := topo.LeafSpineConfig{Leaves: 2, Spines: 2, ServersPerLeaf: 1, Opts: opts()}
	net := topo.LeafSpine(cfg)
	leaf := net.Switches[cfg.LeafSwitch(0)]
	remote := net.HostID(1)
	old := slices.Clone(leaf.Route(remote))
	if len(old) != 2 {
		t.Fatalf("leaf 0 route to host 1 = %v, want both spines", old)
	}
	net.Router.FailLink(cfg.LeafSwitch(0), cfg.SpineSwitch(0))
	net.Router.FailLink(cfg.LeafSwitch(0), cfg.SpineSwitch(1))
	net.Router.Rebuild()
	if got := leaf.Route(remote); !slices.Equal(got, old) {
		t.Fatalf("partitioned leaf's route = %v, want the stale %v", got, old)
	}
	// The other side is cut off from host 0 the same way.
	if got := net.Switches[cfg.LeafSwitch(1)].Route(net.HostID(0)); len(got) != 2 {
		t.Fatalf("leaf 1 route to unreachable host 0 = %v, want the stale pair", got)
	}

	src, dst := net.TransportHost(0), net.TransportHost(1)
	src.StartFlow(net.NextFlowID(), dst.ID(), 10_000, &cc.FixedWindow{}, 0)
	net.Eng.RunUntil(sim.Time(100 * sim.Microsecond))
	var lost uint64
	for _, pi := range old {
		lost += leaf.Ports()[pi].Lost()
	}
	if lost == 0 {
		t.Fatal("no packet was counted lost on the partitioned leaf's dead uplinks")
	}
	if got := dst.ReceivedTotal(); got != 0 {
		t.Fatalf("host 1 received %d bytes across a partition", got)
	}
}

// Every builder counts its ports exactly: the block reserved up front
// holds every NIC and switch port, with none left over and none carved
// from a second array.
// builders builds one small network of each kind.
var builders = map[string]func() *topo.Network{
	"star":     func() *topo.Network { return topo.Star(topo.StarConfig{Hosts: 5, Opts: opts()}) },
	"dumbbell": func() *topo.Network { return topo.Dumbbell(topo.DumbbellConfig{Left: 3, Right: 2, Opts: opts()}) },
	"leafspine": func() *topo.Network {
		return topo.LeafSpine(topo.LeafSpineConfig{Leaves: 3, Spines: 2, ServersPerLeaf: 2, Opts: opts()})
	},
	"parkinglot": func() *topo.Network { return topo.ParkingLot(topo.ParkingLotConfig{Switches: 4, Opts: opts()}) },
	"fattree":    func() *topo.Network { net, _ := smallFatTree(); return net },
	"rotor":      func() *topo.Network { return topo.RotorFabric(smallRotor()) },
}

func TestBuildersReserveExactPorts(t *testing.T) {
	for name, build := range builders {
		net := build()
		ports := len(net.Hosts)
		for _, s := range net.Switches {
			ports += len(s.Ports())
		}
		if spare := topo.SparePorts(net); spare != 0 {
			t.Errorf("%s: %d ports built, %d reserved and never used", name, ports, spare)
		}
		// Each switch's port list fills the room its degree carved for it.
		for si, s := range net.Switches {
			if n, room := len(s.Ports()), cap(s.Ports()); n != room {
				t.Errorf("%s: switch %d has %d ports in a list carved for %d", name, si, n, room)
			}
		}
		if ports, peers := topo.SpareLists(net); ports != 0 || peers != 0 {
			t.Errorf("%s: room for %d port list and %d peer list entries reserved and never carved", name, ports, peers)
		}
	}
}

// Every builder hands all its hosts the network's one flow table: host
// i's flow, numbered past every slot the hosts before it reserved, grows
// the table the network holds, so no host reserves its slots in a table
// of its own.
func TestBuildersShareOneFlowTable(t *testing.T) {
	for name, build := range builders {
		net := build()
		for i := range net.Hosts {
			id := packet.FlowID(64*i + 1)
			net.TransportHost(i).StartFlow(id, net.HostID((i+1)%len(net.Hosts)), 1_000, &cc.FixedWindow{}, 0)
			if slots := net.Flows.Len(); slots <= int(id) {
				t.Fatalf("%s: host %d started flow %d, and the network's table holds %d slots", name, i, id, slots)
			}
		}
	}
}

// Hosts whose slots differ cannot share a network's flow table: building
// a network of window and HOMA hosts panics rather than handing some of
// them tables of their own.
func TestMixedHostsCannotShareFlowTable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a network of window and HOMA hosts built without a panic")
		}
	}()
	hosts := func(eng *sim.Engine, id packet.NodeID) topo.Node {
		if id%2 == 0 {
			return transport.NewHost(eng, id, transport.Config{})
		}
		h := new(homa.Host)
		h.Init(eng, id, homa.Config{})
		return h
	}
	topo.Star(topo.StarConfig{Hosts: 2, Opts: topo.Options{Hosts: hosts}})
}
