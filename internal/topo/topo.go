package topo

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/psim"
	"repro/internal/queue"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/swtch"
	"repro/internal/transport"
	"repro/internal/units"
)

// Node is the endpoint interface topology builders wire up. Both the
// window-transport host and the HOMA host implement it.
type Node interface {
	link.Receiver
	ID() packet.NodeID
	SetUplink(*link.Port)
	NIC() *link.Port
}

// HostFactory constructs an endpoint for the given node ID.
type HostFactory func(eng *sim.Engine, id packet.NodeID) Node

// TransportHosts is a HostFactory for the standard window transport.
func TransportHosts(cfg transport.Config) HostFactory {
	return func(eng *sim.Engine, id packet.NodeID) Node {
		return transport.NewHost(eng, id, cfg)
	}
}

// Options are shared across topology builders.
type Options struct {
	// Hosts constructs endpoints; required.
	Hosts HostFactory
	// BufferPerGbps sizes each switch's shared buffer proportionally to
	// its aggregate port bandwidth, following the paper's
	// "bandwidth-buffer ratio of Intel Tofino switches" (§4.1).
	// 0 keeps buffers unbounded. Tofino is ≈10 KB per Gbps.
	BufferPerGbps int64
	// Alpha is the Dynamic Thresholds factor (default 1).
	Alpha float64
	// INT enables telemetry stamping on every switch.
	INT bool
	// ECN configures RED marking (DCQCN runs).
	ECN swtch.ECNConfig
	// Queues builds the queue disciplines of n switch ports at once, all
	// a fabric's; nil means FIFO.
	Queues func(n int) []queue.Queue
	// Seed feeds all deterministic randomness derived from the topology.
	Seed int64
	// Routing selects the multipath strategy the control plane installs
	// (route.SinglePath, route.ECMP, route.WeightedECMP); nil means
	// per-flow ECMP, the behavior fabrics default to.
	Routing route.Strategy
	// Engine, when non-nil, is the event engine the network runs on —
	// the seam suite harnesses use to hand a Reset() engine (warmed slot
	// rings and node free list) from one run to the next. Nil builds a
	// fresh engine. The engine must be at time zero with no pending
	// events. It is the control engine (probes, routing events), and on a
	// one-shard plan the shard's engine as well.
	Engine *sim.Engine
	// ShardEngines are recycled engines for a plan of several partitions,
	// under the same conditions as Engine: partition i runs on
	// ShardEngines[i], and partitions beyond the slice get fresh engines.
	ShardEngines []*sim.Engine
	// Mailboxes are recycled psim mailboxes, under the same conditions:
	// the i-th sync edge the fabric declares takes Mailboxes[i]
	// (psim.Fabric.Adopt), and edges beyond the slice get fresh ones.
	Mailboxes []psim.Mailbox
	// Memory, when non-nil, holds the arrays a finished network gave
	// back (Network.Recycle); the network takes them over and carves
	// its ports, switches and lists from them.
	Memory *Memory
	// Flows, when non-nil, is an empty flow table (packet.Table.Clear)
	// the network's hosts share instead of starting one; it must keep
	// the slot type of the hosts Hosts builds.
	Flows packet.Table
	// Partition is the plan the fabric runs on (internal/psim): every host
	// and switch runs on its partition's engine and packet pool, and a
	// link whose ends land on different partitions delivers through its
	// shard pair's mailbox. Plans come from
	// FatTreeConfig.Partitions / LeafSpineConfig.Partitions; nil is the
	// one-shard plan.
	Partition *Plan
}

// TofinoBufferPerGbps is the default buffer/bandwidth ratio (§4.1).
const TofinoBufferPerGbps int64 = 10 * 1024

// Network is a wired topology ready to run experiments on.
type Network struct {
	// Eng is the control engine: probes and routing events live here and
	// fire single-threaded between partition slices (see internal/psim).
	// On a one-shard plan it is also the shard's engine, and the network
	// runs on it alone.
	Eng      *sim.Engine
	Hosts    []Node
	Switches []*swtch.Switch
	BaseRTT  sim.Duration
	HostRate units.BitRate
	// Pool is partition 0's packet free list — on a one-shard plan the
	// one every endpoint and switch recycles through.
	Pool *packet.Pool
	// Router is the routing control plane: it computed the installed
	// tables and can fail/restore links and reconverge (internal/route).
	Router *route.Router

	// The plan that placed every entity, the per-partition engines and
	// packet pools, and the conservative-sync fabric that runs them.
	Engs  []*sim.Engine
	Pools []*packet.Pool
	Part  *Plan
	PSim  *psim.Fabric

	// Rotor is the circuit switch of a rotor fabric (RotorFabric), nil on
	// every other: the one component that rewrites routes on a timeline
	// of its own.
	Rotor *Rotor
	// Flows is the packet.FlowTable every host shares, if they keep one.
	Flows packet.Table

	nextFlow uint64
	swPeers  [][]peerRef // per switch, per port: what the port points at
	hostTor  []int       // per host: index of the switch its NIC points at
	ports    link.Block  // every NIC and switch port, carved in wiring order

	// Room for every switch's port, peer and candidate lists, carved by
	// degree as switches are added (addSwitch).
	swPorts []*link.Port
	peers   []peerRef
	groups  [][]int
	store   []int
	queues  []queue.Queue // switch port disciplines not yet handed out (qFor)
	// mem holds the arrays the network carved everything above from, each
	// cut to what it carved; Recycle hands them on.
	mem Memory
}

// Memory is the arrays sized by a fabric that a network is carved from:
// its ports, its switches, their port, peer and candidate lists, its host
// list and the router's port references. Handed to a builder through
// Options.Memory, each array is carved from when it holds the fabric's
// count and replaced by a fresh one of exactly that count when it does
// not; Network.Recycle zeroes what the network carved and gives the
// arrays back. A Memory between networks is therefore all zero, pins
// nothing of the fabric that used it, and is as large as the largest
// fabric built from it, so a run of networks of one shape, even with
// smaller ones in between, allocates none of these arrays after the
// first. The zero value is empty.
type Memory struct {
	ports    []link.Port
	switches []swtch.Switch
	swPorts  []*link.Port
	peers    []peerRef
	groups   [][]int
	store    []int
	refs     []route.PortRef
	hosts    []Node
	hostTor  []int
}

// carveKept returns n zeroed elements, capped at n, from the front of
// *kept's array, which becomes those n: its own when it has room for
// them, else a fresh array of exactly n that replaces it.
func carveKept[T any](kept *[]T, n int) []T {
	if cap(*kept) < n {
		*kept = make([]T, n)
	}
	*kept = (*kept)[:n]
	return (*kept)[:n:n]
}

// giveBack zeroes used, what a network carved of an array, and makes the
// whole array *kept again, empty.
func giveBack[T any](kept *[]T, used []T) {
	clear(used)
	*kept = used[:0]
}

// Recycle zeroes every element the network carved from its Memory and
// gives the arrays back to m, for the next network to carve from
// (Options.Memory); nothing of the network may be used afterwards, not
// its hosts' uplinks, its switches or its ports. Its flow table is the
// hosts' to clear (packet.Table.Clear).
func (n *Network) Recycle(m *Memory) {
	u := &n.mem
	giveBack(&m.ports, u.ports)
	giveBack(&m.switches, u.switches)
	giveBack(&m.swPorts, u.swPorts)
	giveBack(&m.peers, u.peers)
	giveBack(&m.groups, u.groups)
	giveBack(&m.store, u.store)
	giveBack(&m.refs, u.refs)
	giveBack(&m.hosts, u.hosts)
	giveBack(&m.hostTor, u.hostTor)
	*u = Memory{}
}

type peerRef struct {
	isHost bool
	idx    int // index into Hosts or Switches
}

// NextFlowID hands out unique flow IDs.
func (n *Network) NextFlowID() packet.FlowID {
	n.nextFlow++
	return packet.FlowID(n.nextFlow)
}

// TransportHost returns host i as a *transport.Host, panicking if the
// network was built with a different endpoint type.
func (n *Network) TransportHost(i int) *transport.Host {
	h, ok := n.Hosts[i].(*transport.Host)
	if !ok {
		panic(fmt.Sprintf("topo: host %d is %T, not *transport.Host", i, n.Hosts[i]))
	}
	return h
}

// HostID returns the node ID of host i.
func (n *Network) HostID(i int) packet.NodeID { return n.Hosts[i].ID() }

// newNetwork allocates the shell all builders fill in for a fabric of
// the given host, switch and port counts: the plan's engines and pools,
// the psim fabric (its sync edges come with the links that cross, see
// wireSwitches), one block for all the ports (two per link, plus any
// one-way port), one array of switches, and the lists that name them,
// each sized once and carved from opts.Memory where it has room. Every
// port but a host's NIC is a switch's. A one-shard plan's engine is the
// control engine.
func newNetwork(hostRate units.BitRate, hosts, switches, ports int, opts Options) *Network {
	eng := opts.Engine
	if eng == nil {
		eng = sim.New()
	}
	pl := opts.Partition
	if pl == nil {
		pl = onePart(hosts, switches)
	}
	pl.validate(hosts, switches)
	n := &Network{
		Eng: eng, HostRate: hostRate, Part: pl, Flows: opts.Flows,
		Engs: make([]*sim.Engine, pl.Parts), Pools: make([]*packet.Pool, pl.Parts),
		Switches: make([]*swtch.Switch, 0, switches), swPeers: make([][]peerRef, 0, switches),
	}
	if opts.Memory != nil {
		n.mem, *opts.Memory = *opts.Memory, Memory{}
	}
	m, lists := &n.mem, ports-hosts
	n.Hosts = carveKept(&m.hosts, hosts)[:0]
	n.hostTor = carveKept(&m.hostTor, hosts)
	n.swPorts, n.peers = carveKept(&m.swPorts, lists), carveKept(&m.peers, lists)
	n.groups, n.store = carveKept(&m.groups, lists), carveKept(&m.store, 2*lists)
	carveKept(&m.switches, switches)
	n.ports.Use(carveKept(&m.ports, ports))
	if pl.Parts == 1 {
		n.Engs[0] = eng
	} else {
		copy(n.Engs, opts.ShardEngines)
	}
	for i := range n.Engs {
		if n.Engs[i] == nil {
			n.Engs[i] = sim.New()
		}
		n.Pools[i] = packet.NewPool()
	}
	n.Pool = n.Pools[0]
	if opts.Queues != nil {
		n.queues = opts.Queues(ports - hosts)
	}
	n.PSim = psim.New(eng, n.Engs, pl.Workers)
	n.PSim.Adopt(opts.Mailboxes)
	return n
}

// HostEngine returns the engine host hi runs on, its partition's. Setup
// code that schedules on a host's behalf (flow launches) must use it.
func (n *Network) HostEngine(hi int) *sim.Engine { return n.Engs[n.Part.HostPart[hi]] }

// sharer lets endpoints join their partition's packet free list and the
// network's flow table without widening the HostFactory signature. The
// table is the network's, never the factory's: one factory may build
// several networks, each numbering its flows from 1.
type sharer interface {
	SetPool(*packet.Pool)
	ShareFlows(packet.Table) packet.Table
}

func (n *Network) addHost(f HostFactory) int {
	id := packet.NodeID(len(n.Hosts))
	part := n.Part.HostPart[len(n.Hosts)]
	h := f(n.Engs[part], id)
	if s, ok := h.(sharer); ok {
		s.SetPool(n.Pools[part])
		n.Flows = s.ShareFlows(n.Flows)
	}
	n.Hosts = append(n.Hosts, h)
	return len(n.Hosts) - 1
}

// addSwitch adds a switch that will have degree ports.
func (n *Network) addSwitch(opts Options, degree int) int {
	// Switch node IDs live above host IDs; they only matter for debug
	// output since routing is table-driven.
	id := packet.NodeID(1<<16 + len(n.Switches))
	part := n.Part.SwitchPart[len(n.Switches)]
	s := &n.mem.switches[len(n.Switches)]
	s.Init(n.Engs[part], id, swtch.Config{
		Alpha:  opts.Alpha,
		INT:    opts.INT,
		ECN:    opts.ECN,
		Seed:   opts.Seed,
		Pool:   n.Pools[part],
		Ports:  carve(&n.swPorts, degree),
		Groups: carve(&n.groups, degree),
		Store:  carve(&n.store, 2*degree),
	})
	n.Switches = append(n.Switches, s)
	n.swPeers = append(n.swPeers, carve(&n.peers, degree))
	return len(n.Switches) - 1
}

// carve cuts an empty slice with room for d elements off the front of
// *room; capped at d, it never grows into the next one's.
func carve[T any](room *[]T, d int) []T {
	s := (*room)[:0:d]
	*room = (*room)[d:]
	return s
}

// qFor returns the next switch port's queue discipline, nil for a FIFO.
func (n *Network) qFor(opts Options) queue.Queue {
	if opts.Queues == nil {
		return nil
	}
	q := n.queues[0]
	n.queues = n.queues[1:]
	return q
}

// wireHost connects host hi and switch si bidirectionally. Host and
// switch must be co-partitioned — plans keep racks whole, so host links
// are never cuts.
func (n *Network) wireHost(hi, si int, rate units.BitRate, delay sim.Duration, opts Options) {
	part := n.Part.HostPart[hi]
	if sp := n.Part.SwitchPart[si]; sp != part {
		panic(fmt.Sprintf("topo: host %d (partition %d) wired to switch %d (partition %d)", hi, part, si, sp))
	}
	h := n.Hosts[hi]
	s := n.Switches[si]
	up := n.ports.NewPort(n.Engs[part], rate, delay, s)
	up.Pool = n.Pools[part]
	h.SetUplink(up)
	s.AddPortFrom(&n.ports, rate, delay, h, n.qFor(opts))
	n.swPeers[si] = append(n.swPeers[si], peerRef{isHost: true, idx: hi})
	n.hostTor[hi] = si
}

// WalkRoutes traverses every port a flow from host src to host dst can
// cross under the installed routing tables, calling visit with the
// fraction of the flow's load each port carries when per-flow ECMP
// hashing is averaged over many flows: the NIC carries 1.0, and at each
// switch the incoming fraction splits equally over the candidate ports
// (WCMP weighting arrives for free, since weighted tables repeat
// entries). This is the fluid limit of the packet forwarding path —
// internal/hybrid uses it to compile per-component demand matrices
// into per-link arrival rates. It must be called after the control
// plane has installed tables (any time after the builder returns) and
// reflects the tables as currently installed.
func (n *Network) WalkRoutes(src, dst int, visit func(pt *link.Port, fraction float64)) {
	if src == dst {
		return
	}
	visit(n.Hosts[src].NIC(), 1.0)
	dstID := n.Hosts[dst].ID()
	var walk func(si int, frac float64)
	walk = func(si int, frac float64) {
		s := n.Switches[si]
		cand := s.Route(dstID)
		if len(cand) == 0 {
			return
		}
		f := frac / float64(len(cand))
		ports := s.Ports()
		for _, pi := range cand {
			visit(ports[pi], f)
			if peer := n.swPeers[si][pi]; !peer.isHost {
				walk(peer.idx, f)
			}
		}
	}
	walk(n.hostTor[src], 1.0)
}

// wireSwitches connects switches ai and bi bidirectionally. When the
// two ends live on different partitions the link is a cut: each port
// posts its transmissions to the mailbox of its shard pair's sync edge,
// whose lookahead the link bounds by its delay plus the serialization
// of the smallest frame — the least latency any packet can cross it in.
func (n *Network) wireSwitches(ai, bi int, rate units.BitRate, delay sim.Duration, opts Options) {
	pa := n.Switches[ai].AddPortFrom(&n.ports, rate, delay, n.Switches[bi], n.qFor(opts))
	n.swPeers[ai] = append(n.swPeers[ai], peerRef{idx: bi})
	pb := n.Switches[bi].AddPortFrom(&n.ports, rate, delay, n.Switches[ai], n.qFor(opts))
	n.swPeers[bi] = append(n.swPeers[bi], peerRef{idx: ai})
	if wa, wb := n.Part.SwitchPart[ai], n.Part.SwitchPart[bi]; wa != wb {
		look := delay + minWireTx(rate)
		a, b := n.Switches[ai].Ports()[pa], n.Switches[bi].Ports()[pb]
		a.Out, a.FarPool = n.PSim.AddEdge(wa, wb, look), n.Pools[wb]
		b.Out, b.FarPool = n.PSim.AddEdge(wb, wa, look), n.Pools[wa]
	}
}

// finish sizes the shared buffers and hands the wired graph to the
// routing control plane, which numbers the hosts by edge switch, sizes
// every switch's table to one entry per edge plus one per own host, and
// computes and installs the tables under the configured strategy
// (per-flow ECMP by default).
func (n *Network) finish(opts Options) {
	if opts.BufferPerGbps > 0 {
		for _, s := range n.Switches {
			var gbps int64
			for _, pt := range s.Ports() {
				gbps += int64(pt.Rate / units.Gbps)
			}
			s.Shared().Total = opts.BufferPerGbps * gbps
		}
	}
	graph := make([][]route.PortRef, len(n.Switches))
	installers := make([]route.Installer, len(n.Switches))
	var links int
	for _, peers := range n.swPeers {
		links += len(peers)
	}
	all := carveKept(&n.mem.refs, links)
	for si, s := range n.Switches {
		installers[si] = s
		ports := s.Ports()
		refs := all[:len(n.swPeers[si]):len(n.swPeers[si])]
		all = all[len(refs):]
		for pi, peer := range n.swPeers[si] {
			refs[pi] = route.PortRef{Link: ports[pi]}
			if peer.isHost {
				refs[pi].ToHost = true
				refs[pi].Host = peer.idx
				refs[pi].HostID = n.Hosts[peer.idx].ID()
			} else {
				refs[pi].Peer = peer.idx
			}
		}
		graph[si] = refs
	}
	n.Router = route.NewRouter(n.Eng, graph, installers, opts.Routing)
}
