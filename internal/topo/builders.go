package topo

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// The paper's fabric (§4.1): 25 Gbps server links, 100 Gbps fabric
// links, and 1 µs of propagation on server and intra-pod links, 5 µs on
// links to the core. Every builder takes the rates and delays its
// config does not carry from here.
const (
	hostRate   = 25 * units.Gbps
	fabricRate = 100 * units.Gbps
	edgeDelay  = sim.Microsecond
	coreDelay  = 5 * sim.Microsecond
)

// StarConfig is N hosts on a single switch — the minimal incast fabric
// used by unit tests and the quickstart example. Links have 1 µs of
// propagation.
type StarConfig struct {
	Hosts    int
	HostRate units.BitRate // default 25 Gbps
	Opts     Options
}

// Star builds a single-switch topology.
func Star(cfg StarConfig) *Network {
	if cfg.HostRate == 0 {
		cfg.HostRate = hostRate
	}
	n := newNetwork(cfg.HostRate, cfg.Hosts, 1, 2*cfg.Hosts, cfg.Opts)
	si := n.addSwitch(cfg.Opts, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		hi := n.addHost(cfg.Opts.Hosts)
		n.wireHost(hi, si, cfg.HostRate, edgeDelay, cfg.Opts)
	}
	// RTT: host→switch→host and back = 4 link delays, plus serialization
	// headroom of roughly two MSS packets at the host rate.
	n.BaseRTT = 4*edgeDelay + 2*cfg.HostRate.TxTime(1048) + 2*sim.Microsecond
	n.finish(cfg.Opts)
	return n
}

// DumbbellConfig is the classic shared-bottleneck microbenchmark: Left
// senders and Right receivers joined by one bottleneck link. Host links
// have 1 µs of propagation, the bottleneck 4 µs.
type DumbbellConfig struct {
	Left, Right    int
	HostRate       units.BitRate // default 100 Gbps
	BottleneckRate units.BitRate // default 100 Gbps
	Opts           Options
}

// bottleneckDelay is the propagation delay of a Dumbbell's bottleneck.
const bottleneckDelay = 4 * sim.Microsecond

// Dumbbell builds a two-switch topology with a single bottleneck.
func Dumbbell(cfg DumbbellConfig) *Network {
	if cfg.HostRate == 0 {
		cfg.HostRate = 100 * units.Gbps
	}
	if cfg.BottleneckRate == 0 {
		cfg.BottleneckRate = 100 * units.Gbps
	}
	n := newNetwork(cfg.HostRate, cfg.Left+cfg.Right, 2, 2*(cfg.Left+cfg.Right+1), cfg.Opts)
	l := n.addSwitch(cfg.Opts, 1+cfg.Left)
	r := n.addSwitch(cfg.Opts, 1+cfg.Right)
	n.wireSwitches(l, r, cfg.BottleneckRate, bottleneckDelay, cfg.Opts)
	for i := 0; i < cfg.Left; i++ {
		hi := n.addHost(cfg.Opts.Hosts)
		n.wireHost(hi, l, cfg.HostRate, edgeDelay, cfg.Opts)
	}
	for i := 0; i < cfg.Right; i++ {
		hi := n.addHost(cfg.Opts.Hosts)
		n.wireHost(hi, r, cfg.HostRate, edgeDelay, cfg.Opts)
	}
	n.BaseRTT = 2*(2*edgeDelay+bottleneckDelay) +
		4*cfg.BottleneckRate.TxTime(1048) + 2*sim.Microsecond
	n.finish(cfg.Opts)
	return n
}

// BottleneckPort returns the left→right bottleneck port of a Dumbbell
// (its egress queue is the one experiments monitor).
func (n *Network) BottleneckPort() interface {
	QueueBytes() int64
	TxBytes() uint64
} {
	return n.Switches[0].Ports()[0]
}

// LeafSpineConfig is the two-tier Clos fabric of the incast literature
// the paper's synthetic workload cites (Alizadeh & Edsall 2013): every
// leaf connects to every spine. Unlike the pod-structured fat-tree, any
// leaf pair is two hops apart with Spines-way ECMP. Servers attach at
// 25 Gbps, spines at 100 Gbps, and every link has 1 µs of propagation.
type LeafSpineConfig struct {
	Leaves         int // default 4
	Spines         int // default 2
	ServersPerLeaf int // default 8
	// SpineRates overrides the fabric rate per spine (spine i's leaf
	// links run at SpineRates[i]) — the asymmetric-capacity fabric the
	// multipath experiments stress. Shorter slices leave later spines at
	// 100 Gbps.
	SpineRates []units.BitRate
	Opts       Options
}

func (c *LeafSpineConfig) fillDefaults() {
	if c.Leaves == 0 {
		c.Leaves = 4
	}
	if c.Spines == 0 {
		c.Spines = 2
	}
	if c.ServersPerLeaf == 0 {
		c.ServersPerLeaf = 8
	}
}

// WithDefaults returns the config with every zero field filled, so
// callers can inspect the effective fabric.
func (c LeafSpineConfig) WithDefaults() LeafSpineConfig {
	c.fillDefaults()
	return c
}

// LeafSwitch returns the switch index of leaf l (leaves come first).
func (c LeafSpineConfig) LeafSwitch(l int) int { return l }

// SpineRate returns the effective leaf-link rate of spine sp: its
// SpineRates override when set, fabricRate otherwise. Builders and
// experiments share this rule.
func (c LeafSpineConfig) SpineRate(sp int) units.BitRate {
	if sp < len(c.SpineRates) && c.SpineRates[sp] > 0 {
		return c.SpineRates[sp]
	}
	return fabricRate
}

// SpineSwitch returns the switch index of spine s (after the leaves).
func (c LeafSpineConfig) SpineSwitch(s int) int {
	c.fillDefaults()
	return c.Leaves + s
}

// LeafSpine builds the fabric. Servers [l·ServersPerLeaf,
// (l+1)·ServersPerLeaf) share leaf l; Switches lists leaves then spines.
func LeafSpine(cfg LeafSpineConfig) *Network {
	cfg.fillDefaults()
	hosts := cfg.Leaves * cfg.ServersPerLeaf
	n := newNetwork(hostRate, hosts, cfg.Leaves+cfg.Spines, 2*(hosts+cfg.Leaves*cfg.Spines), cfg.Opts)
	leaves := make([]int, cfg.Leaves)
	spines := make([]int, cfg.Spines)
	for i := range leaves {
		leaves[i] = n.addSwitch(cfg.Opts, cfg.ServersPerLeaf+cfg.Spines)
	}
	for i := range spines {
		spines[i] = n.addSwitch(cfg.Opts, cfg.Leaves)
	}
	for l := range leaves {
		for s := 0; s < cfg.ServersPerLeaf; s++ {
			hi := n.addHost(cfg.Opts.Hosts)
			n.wireHost(hi, leaves[l], hostRate, edgeDelay, cfg.Opts)
		}
		for sp := range spines {
			n.wireSwitches(leaves[l], spines[sp], cfg.SpineRate(sp), edgeDelay, cfg.Opts)
		}
	}
	// Cross-leaf path: host→leaf→spine→leaf→host.
	n.BaseRTT = 8*edgeDelay + 2*hostRate.TxTime(1048) +
		2*fabricRate.TxTime(1048) + 2*sim.Microsecond
	n.finish(cfg.Opts)
	return n
}

// ParkingLotConfig is the classic multi-bottleneck chain: Switches
// switches in a line, one host on each, plus one "through" sender at the
// head and receiver at the tail. The through flow crosses every link;
// cross flows each load one link. §3.5 uses this structure to explain
// why INT (which sees the *most* bottlenecked hop) beats RTT (which sees
// the *sum* of queuing delays) on multi-bottleneck paths. Hosts attach
// at 100 Gbps, and every link has 1 µs of propagation.
type ParkingLotConfig struct {
	Switches int           // chain length (≥2)
	LinkRate units.BitRate // switch-switch, default 25 Gbps
	Opts     Options
}

// parkingLotHostRate is a ParkingLot's host link rate, 4× the default
// chain rate.
const parkingLotHostRate = 100 * units.Gbps

// ParkingLot builds the chain. Hosts: 0 = through sender, 1 = through
// receiver (on the last switch), then one cross sender + receiver pair
// per link: cross flow i runs host(2+2i) → host(3+2i) over link i
// (switch i → switch i+1).
func ParkingLot(cfg ParkingLotConfig) *Network {
	if cfg.Switches < 2 {
		cfg.Switches = 2
	}
	if cfg.LinkRate == 0 {
		cfg.LinkRate = 25 * units.Gbps
	}
	n := newNetwork(parkingLotHostRate, 2*cfg.Switches, cfg.Switches, 2*(3*cfg.Switches-1), cfg.Opts)
	sw := make([]int, cfg.Switches)
	for i := range sw {
		// Two hosts each, and a link to each neighbour in the chain.
		degree := 4
		if i == 0 || i == len(sw)-1 {
			degree = 3
		}
		sw[i] = n.addSwitch(cfg.Opts, degree)
	}
	for i := 0; i+1 < len(sw); i++ {
		n.wireSwitches(sw[i], sw[i+1], cfg.LinkRate, edgeDelay, cfg.Opts)
	}
	// Through pair.
	h := n.addHost(cfg.Opts.Hosts)
	n.wireHost(h, sw[0], parkingLotHostRate, edgeDelay, cfg.Opts)
	h = n.addHost(cfg.Opts.Hosts)
	n.wireHost(h, sw[len(sw)-1], parkingLotHostRate, edgeDelay, cfg.Opts)
	// Cross pairs, one per inter-switch link.
	for i := 0; i+1 < len(sw); i++ {
		h = n.addHost(cfg.Opts.Hosts)
		n.wireHost(h, sw[i], parkingLotHostRate, edgeDelay, cfg.Opts)
		h = n.addHost(cfg.Opts.Hosts)
		n.wireHost(h, sw[i+1], parkingLotHostRate, edgeDelay, cfg.Opts)
	}
	// Worst-case RTT: the through path.
	oneWay := sim.Duration(cfg.Switches+1) * edgeDelay
	n.BaseRTT = 2*oneWay + sim.Duration(cfg.Switches)*2*cfg.LinkRate.TxTime(1048) + 2*sim.Microsecond
	n.finish(cfg.Opts)
	return n
}

// FatTreeConfig describes the paper's evaluation topology (§4.1). The
// zero value scaled by ServersPerTor reproduces it exactly; smaller
// ServersPerTor values keep the same structure at lower cost for tests.
// Servers attach at 25 Gbps; server and intra-pod links have 1 µs of
// propagation, links to the core 5 µs.
type FatTreeConfig struct {
	Pods          int           // default 4
	TorsPerPod    int           // default 2
	AggsPerPod    int           // default 2
	Cores         int           // default 2
	ServersPerTor int           // default 32 (gives 256 servers)
	FabricRate    units.BitRate // default 100 Gbps
	Opts          Options
}

// WithDefaults returns the config with every zero field replaced by the
// paper's §4.1 value, so callers can inspect the effective topology.
func (c FatTreeConfig) WithDefaults() FatTreeConfig {
	c.fillDefaults()
	return c
}

func (c *FatTreeConfig) fillDefaults() {
	if c.Pods == 0 {
		c.Pods = 4
	}
	if c.TorsPerPod == 0 {
		c.TorsPerPod = 2
	}
	if c.AggsPerPod == 0 {
		c.AggsPerPod = 2
	}
	if c.Cores == 0 {
		c.Cores = 2
	}
	if c.ServersPerTor == 0 {
		c.ServersPerTor = 32
	}
	if c.FabricRate == 0 {
		c.FabricRate = fabricRate
	}
}

// FatTree builds the oversubscribed fat-tree. Hosts are numbered so that
// servers [t·ServersPerTor, (t+1)·ServersPerTor) share ToR t; ToRs are
// Switches[0..Pods·TorsPerPod), then aggregations, then cores.
func FatTree(cfg FatTreeConfig) *Network {
	cfg.fillDefaults()
	nTors := cfg.Pods * cfg.TorsPerPod
	nAggs := cfg.Pods * cfg.AggsPerPod
	hosts := nTors * cfg.ServersPerTor
	n := newNetwork(hostRate, hosts, nTors+nAggs+cfg.Cores,
		2*(hosts+nTors*cfg.AggsPerPod+nAggs*cfg.Cores), cfg.Opts)
	tors := make([]int, nTors)
	aggs := make([]int, nAggs)
	cores := make([]int, cfg.Cores)
	for i := range tors {
		tors[i] = n.addSwitch(cfg.Opts, cfg.ServersPerTor+cfg.AggsPerPod)
	}
	for i := range aggs {
		aggs[i] = n.addSwitch(cfg.Opts, cfg.TorsPerPod+cfg.Cores)
	}
	for i := range cores {
		cores[i] = n.addSwitch(cfg.Opts, nAggs)
	}

	for t := 0; t < nTors; t++ {
		for s := 0; s < cfg.ServersPerTor; s++ {
			hi := n.addHost(cfg.Opts.Hosts)
			n.wireHost(hi, tors[t], hostRate, edgeDelay, cfg.Opts)
		}
	}
	for p := 0; p < cfg.Pods; p++ {
		for t := 0; t < cfg.TorsPerPod; t++ {
			for a := 0; a < cfg.AggsPerPod; a++ {
				n.wireSwitches(tors[p*cfg.TorsPerPod+t], aggs[p*cfg.AggsPerPod+a],
					cfg.FabricRate, edgeDelay, cfg.Opts)
			}
		}
	}
	for a := 0; a < nAggs; a++ {
		for c := 0; c < cfg.Cores; c++ {
			n.wireSwitches(aggs[a], cores[c], cfg.FabricRate, coreDelay, cfg.Opts)
		}
	}

	// Longest round trip: 2×(2·edge (host,tor-agg) + core + core + 2·edge)
	// of propagation plus serialization headroom.
	oneWay := 4*edgeDelay + 2*coreDelay
	n.BaseRTT = 2*oneWay + 2*hostRate.TxTime(1048) + 4*cfg.FabricRate.TxTime(1048) + sim.Microsecond
	n.finish(cfg.Opts)
	return n
}

// Racks returns the rack (ToR) count of the configured fat-tree.
func (c FatTreeConfig) Racks() int {
	c.fillDefaults()
	return c.Pods * c.TorsPerPod
}

// TorUplinkPorts returns the port indexes on ToR t that face the
// aggregation layer (the load metric of §4.1 is offered on ToR uplinks).
func (n *Network) TorUplinkPorts(t int) []int {
	var up []int
	for pi, ref := range n.swPeers[t] {
		if !ref.isHost {
			up = append(up, pi)
		}
	}
	return up
}
