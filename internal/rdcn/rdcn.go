package rdcn

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/swtch"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/units"
)

// Config describes the RDCN topology of §5: Tors ToR switches with
// ServersPerTor servers each, a shared packet-switched core, and one
// rotor circuit switch. The zero value scaled by Tors/ServersPerTor
// reproduces the paper's setup (25 ToRs × 10 servers, 25 Gbps packet
// links, 100 Gbps circuits, 225 µs days, 20 µs nights, base RTT 24 µs).
type Config struct {
	Tors          int
	ServersPerTor int
	HostRate      units.BitRate // server ↔ ToR
	PacketRate    units.BitRate // ToR ↔ packet core (Fig. 8b sweeps this)
	CircuitRate   units.BitRate // ToR ↔ rotor
	Day           sim.Duration
	Night         sim.Duration
	// Prebuffer routes packets into the circuit VOQ this long before
	// their circuit day begins (reTCP's prebuffering; 0 for PowerTCP and
	// HPCC runs, which use the circuit only while it is up).
	Prebuffer sim.Duration
	// INT enables telemetry stamping at every egress (ToR and core).
	INT bool
	// HostCfg configures the window transport on the servers. BaseRTT 0
	// derives the topology's maximum base RTT.
	HostCfg transport.Config
	// EdgeDelay/CoreDelay are propagation delays (defaults 1 µs / 5 µs).
	EdgeDelay, CoreDelay sim.Duration
}

func (c *Config) fillDefaults() {
	if c.Tors == 0 {
		c.Tors = 25
	}
	if c.ServersPerTor == 0 {
		c.ServersPerTor = 10
	}
	if c.HostRate == 0 {
		c.HostRate = 25 * units.Gbps
	}
	if c.PacketRate == 0 {
		c.PacketRate = 25 * units.Gbps
	}
	if c.CircuitRate == 0 {
		c.CircuitRate = 100 * units.Gbps
	}
	if c.Day == 0 {
		c.Day = 225 * sim.Microsecond
	}
	if c.Night == 0 {
		c.Night = 20 * sim.Microsecond
	}
	if c.EdgeDelay == 0 {
		c.EdgeDelay = sim.Microsecond
	}
	if c.CoreDelay == 0 {
		c.CoreDelay = 5 * sim.Microsecond
	}
}

// Network is a built RDCN.
type Network struct {
	Eng   *sim.Engine
	Cfg   Config
	Sched *Schedule
	Tors  []*Tor
	Core  *swtch.Switch
	Hosts []*transport.Host
	Pool  *packet.Pool

	BaseRTT  sim.Duration
	nextFlow uint64
}

// NextFlowID hands out unique flow IDs.
func (n *Network) NextFlowID() packet.FlowID {
	n.nextFlow++
	return packet.FlowID(n.nextFlow)
}

// TorOf returns the ToR index serving a host/node ID.
func (n *Network) TorOf(id packet.NodeID) int {
	return int(id) / n.Cfg.ServersPerTor
}

// HostsOfTor returns the hosts under ToR t.
func (n *Network) HostsOfTor(t int) []*transport.Host {
	s := n.Cfg.ServersPerTor
	return n.Hosts[t*s : (t+1)*s]
}

// Tor is a ToR switch with per-destination VOQs on its circuit port.
// It implements link.Receiver.
type Tor struct {
	Idx int
	net *Network

	hostPorts []*link.Port // indexed by local server offset
	pktPort   *link.Port
	circPort  *link.Port
	voq       *queue.Class
}

// VOQBytes returns the bytes waiting in the VOQ toward dstTor.
func (t *Tor) VOQBytes(dstTor int) int64 { return t.voq.ClassBytes(dstTor) }

// CircuitPort exposes the circuit-facing port (utilization metrics).
func (t *Tor) CircuitPort() *link.Port { return t.circPort }

// PacketPort exposes the packet-core-facing port.
func (t *Tor) PacketPort() *link.Port { return t.pktPort }

// Receive implements link.Receiver: local delivery, or circuit-vs-packet
// path selection for remote racks.
func (t *Tor) Receive(p *packet.Packet) {
	dstTor := t.net.TorOf(p.Dst)
	if dstTor == t.Idx {
		off := int(p.Dst) - t.Idx*t.net.Cfg.ServersPerTor
		t.hostPorts[off].Send(p)
		return
	}
	if t.net.Sched.ActiveOrUpcoming(t.Idx, dstTor, t.net.Eng.Now(), t.net.Cfg.Prebuffer) {
		t.circPort.Send(p)
		return
	}
	t.pktPort.Send(p)
}

func (t *Tor) String() string { return fmt.Sprintf("tor-%d", t.Idx) }

// circuitFabric delivers a packet emerging from a ToR's circuit port to
// the destination ToR. The VOQ discipline guarantees only packets for the
// currently matched ToR are in flight.
type circuitFabric struct{ net *Network }

func (f *circuitFabric) Receive(p *packet.Packet) {
	f.net.Tors[f.net.TorOf(p.Dst)].Receive(p)
}

// Build wires the RDCN and starts the rotor schedule.
func Build(cfg Config) *Network {
	cfg.fillDefaults()
	eng := sim.New()
	n := &Network{Eng: eng, Cfg: cfg, Pool: packet.NewPool()}
	n.Sched = &Schedule{Tors: cfg.Tors, Day: cfg.Day, Night: cfg.Night}
	// A prebuffer lead approaching the rotor week would classify every
	// destination as "upcoming" and starve the packet path (including
	// ACKs). Clamp it so at least two slots of each cycle stay packet-
	// routed; Build callers at paper scale are unaffected.
	if maxLead := n.Sched.Week() - 2*n.Sched.Slot(); cfg.Prebuffer > maxLead {
		n.Cfg.Prebuffer = maxLead
	}

	// Base RTT: the packet path is the longest (edge+core+core+edge one
	// way); the paper's 24 µs figure for 1 µs/5 µs delays.
	n.BaseRTT = 2*(2*cfg.EdgeDelay+2*cfg.CoreDelay) +
		2*cfg.HostRate.TxTime(1048) + 2*cfg.PacketRate.TxTime(1048)
	hostCfg := cfg.HostCfg
	if hostCfg.BaseRTT == 0 {
		hostCfg.BaseRTT = n.BaseRTT
	}
	// Circuit day/night path flapping reorders packets; rely on RTO.
	if hostCfg.DupAckThreshold == 0 {
		hostCfg.DupAckThreshold = -1
	}

	n.Core = swtch.New(eng, packet.NodeID(1<<18), swtch.Config{INT: cfg.INT, Pool: n.Pool})

	fabric := &circuitFabric{net: n}
	for ti := 0; ti < cfg.Tors; ti++ {
		tor := &Tor{Idx: ti, net: n}
		n.Tors = append(n.Tors, tor)
		// Servers.
		for s := 0; s < cfg.ServersPerTor; s++ {
			id := packet.NodeID(ti*cfg.ServersPerTor + s)
			h := transport.NewHost(eng, id, hostCfg)
			h.SetPool(n.Pool)
			n.Hosts = append(n.Hosts, h)
			up := link.NewPort(eng, cfg.HostRate, cfg.EdgeDelay, tor)
			up.Pool = n.Pool
			h.SetUplink(up)
			down := n.newINTPort(cfg.HostRate, cfg.EdgeDelay, h, nil)
			tor.hostPorts = append(tor.hostPorts, down)
		}
		// Packet core uplink.
		tor.pktPort = n.newINTPort(cfg.PacketRate, cfg.CoreDelay, n.Core, nil)
		// Circuit port with per-destination VOQs, dark until its first day.
		voq := queue.NewClass(func(p *packet.Packet) int { return n.TorOf(p.Dst) })
		tor.voq = voq
		tor.circPort = n.newINTPort(cfg.CircuitRate, cfg.CoreDelay, fabric, voq)
		tor.circPort.Pause()
	}
	// Core routes every host via its ToR's core-facing port. The core's
	// port k faces ToR k.
	for ti, tor := range n.Tors {
		n.Core.AddPort(cfg.PacketRate, cfg.CoreDelay, tor, nil)
		for s := 0; s < cfg.ServersPerTor; s++ {
			n.Core.SetRoute(packet.NodeID(ti*cfg.ServersPerTor+s), []int{ti})
		}
	}

	n.runRotor(0)
	return n
}

// newINTPort builds a ToR port that stamps INT at dequeue when the
// network has it enabled.
func (n *Network) newINTPort(rate units.BitRate, delay sim.Duration, peer link.Receiver, q queue.Queue) *link.Port {
	pt := link.NewPort(n.Eng, rate, delay, peer)
	if q != nil {
		pt.Q = q
	}
	if n.Cfg.INT {
		pt.OnDequeue = func(p *packet.Packet) {
			n.Pool.Stamp(p, telemetry.HopRecord{
				QLen:    pt.QueueBytes(),
				TxBytes: pt.TxBytes(),
				TS:      n.Eng.Now(),
				Rate:    pt.Rate,
			})
		}
	}
	return pt
}

// runRotor drives one slot (day + night) starting at slot index k and
// reschedules itself forever; experiments bound runs with RunUntil.
func (n *Network) runRotor(k int) {
	m := k % n.Sched.Matchings()
	// Day start: install matching m everywhere and light the circuits.
	for _, tor := range n.Tors {
		tor.voq.SetActive(n.Sched.DstOf(tor.Idx, m))
		tor.circPort.Resume()
	}
	n.Eng.After(n.Cfg.Day, func() {
		// Night: circuits go dark for reconfiguration.
		for _, tor := range n.Tors {
			tor.circPort.Pause()
		}
		n.Eng.After(n.Cfg.Night, func() { n.runRotor(k + 1) })
	})
}
