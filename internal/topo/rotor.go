package topo

import (
	"cmp"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/rdcn"
	"repro/internal/sim"
	"repro/internal/units"
)

// RotorConfig describes the reconfigurable DCN of §5: Tors ToR switches
// with ServersPerTor servers each, a shared packet-switched core, and one
// rotor circuit switch that gives every ToR a circuit to one other ToR
// at a time. The zero value reproduces the paper's setup (25 ToRs × 10
// servers, 25 Gbps packet links, 100 Gbps circuits, 225 µs days, 20 µs
// nights, base RTT 24 µs). Servers attach at 25 Gbps over 1 µs links;
// core links and circuits have 5 µs of propagation, and circuits run at
// RotorCircuitRate.
type RotorConfig struct {
	Tors          int
	ServersPerTor int
	PacketRate    units.BitRate // ToR ↔ packet core (Fig. 8b sweeps this)
	Day           sim.Duration  // time a matching stays installed
	Night         sim.Duration  // reconfiguration gap, circuits dark
	// Prebuffer routes packets into the circuit VOQ this long before
	// their circuit day begins (reTCP's prebuffering; 0 for PowerTCP and
	// HPCC runs, which use the circuit only while it is up).
	Prebuffer sim.Duration
	Opts      Options
}

// RotorCircuitRate is the rate of a rotor fabric's ToR ↔ rotor circuits
// (§5).
const RotorCircuitRate = 100 * units.Gbps

// WithDefaults returns the config with every zero field replaced by the
// paper's §5 value and Prebuffer clamped to the schedule, so callers can
// inspect the effective fabric before it exists.
func (c RotorConfig) WithDefaults() RotorConfig {
	c.Tors = cmp.Or(c.Tors, 25)
	c.ServersPerTor = cmp.Or(c.ServersPerTor, 10)
	c.PacketRate = cmp.Or(c.PacketRate, 25*units.Gbps)
	c.Day = cmp.Or(c.Day, 225*sim.Microsecond)
	c.Night = cmp.Or(c.Night, 20*sim.Microsecond)
	// A prebuffer lead approaching the rotor week would classify every
	// destination as "upcoming" and starve the packet path (including
	// ACKs). Clamp it so at least two slots of each cycle stay packet-
	// routed; paper-scale runs are unaffected.
	s := c.Schedule()
	c.Prebuffer = min(c.Prebuffer, s.Week()-2*s.Slot())
	return c
}

// Schedule returns the rotor calendar of the configured fabric.
func (c RotorConfig) Schedule() *rdcn.Schedule {
	return &rdcn.Schedule{Tors: c.Tors, Day: c.Day, Night: c.Night}
}

// BaseRTT is the fabric's maximum base RTT, computable before the
// network exists (hosts are configured with it): the packet path is the
// longest — edge+core+core+edge one way — which is the paper's 24 µs at
// 1 µs / 5 µs delays.
func (c RotorConfig) BaseRTT() sim.Duration {
	return 2*(2*edgeDelay+2*coreDelay) +
		2*hostRate.TxTime(1048) + 2*c.PacketRate.TxTime(1048)
}

// Rotor is the circuit switch of a rotor fabric: it owns the slot
// timeline and, each slot, re-points every ToR's circuit port and moves
// the ToR's routes to a rack between packet port and circuit port. It
// hangs off Network.Rotor, nil on every other fabric.
type Rotor struct {
	// Cfg is the resolved config: defaults filled, Prebuffer clamped.
	Cfg   RotorConfig
	Sched *rdcn.Schedule

	net *Network
	voq []*queue.Class // per ToR: the circuit port's per-destination VOQs
	// onCircuit[src*Tors+dst]: src's routes to rack dst point at the
	// circuit port. Every ToR has the same port layout — servers, then
	// the packet uplink, then the circuit — so two one-port candidate
	// lists serve them all.
	onCircuit             []bool
	viaPacket, viaCircuit []int
}

// VOQBytes returns the bytes waiting in src's VOQ toward dst.
func (r *Rotor) VOQBytes(src, dst int) int64 { return r.voq[src].ClassBytes(dst) }

// CircuitPort exposes ToR t's circuit-facing port (utilization metrics).
func (r *Rotor) CircuitPort(t int) *link.Port { return r.net.Switches[t].Ports()[r.viaCircuit[0]] }

// RotorFabric wires the RDCN on the common port layer and starts the
// rotor. Servers [t·ServersPerTor, (t+1)·ServersPerTor) share ToR t;
// Switches lists the ToRs, then the packet core. The router sees the
// packet network alone: each ToR's circuit port is added last and kept
// out of the graph, and the rotor moves routes onto it.
func RotorFabric(cfg RotorConfig) *Network {
	cfg = cfg.WithDefaults()
	// Two ports a link (hosts, ToR uplinks) and each ToR's circuit port.
	hosts := cfg.Tors * cfg.ServersPerTor
	n := newNetwork(hostRate, hosts, cfg.Tors+1, 2*(hosts+cfg.Tors)+cfg.Tors, cfg.Opts)
	n.BaseRTT = cfg.BaseRTT()
	r := &Rotor{
		Cfg: cfg, Sched: cfg.Schedule(), net: n,
		onCircuit:  make([]bool, cfg.Tors*cfg.Tors),
		viaPacket:  []int{cfg.ServersPerTor},
		viaCircuit: []int{cfg.ServersPerTor + 1},
	}
	n.Rotor = r
	for range cfg.Tors {
		// Its servers, the packet core and the circuit.
		n.addSwitch(cfg.Opts, cfg.ServersPerTor+2)
	}
	core := n.addSwitch(cfg.Opts, cfg.Tors)
	for t := range cfg.Tors {
		for range cfg.ServersPerTor {
			hi := n.addHost(cfg.Opts.Hosts)
			n.wireHost(hi, t, hostRate, edgeDelay, cfg.Opts)
		}
		n.wireSwitches(t, core, cfg.PacketRate, coreDelay, cfg.Opts)
	}
	n.finish(cfg.Opts)
	for t := range cfg.Tors {
		// Per-destination VOQs, dark until the first day; the peer is set
		// at each day start.
		voq := queue.NewClass(func(p *packet.Packet) int { return int(p.Dst) / cfg.ServersPerTor })
		r.voq = append(r.voq, voq)
		n.Switches[t].AddPortFrom(&n.ports, RotorCircuitRate, coreDelay, nil, voq)
		r.CircuitPort(t).Pause()
	}
	r.day(0)
	if lead, slot := cfg.Prebuffer, r.Sched.Slot(); lead%slot != 0 {
		// Routes also move lead before each day start. (A lead of whole
		// slots lands on day starts, which reroute anyway.)
		var tick func()
		tick = func() {
			r.reroute()
			n.Eng.After(slot, tick)
		}
		n.Eng.After(slot-lead%slot, tick)
	}
	return n
}

// day starts slot k — installs its matching on every ToR and lights the
// circuits — and schedules the night and the next slot, forever; runs
// are bounded by their horizon.
//
// A circuit port's Peer is re-pointed here and not at day end: the VOQ
// only drains the matched rack's class, and a packet still on the
// circuit when the day ends lands within coreDelay plus one
// transmission, far inside the Night, so every delivery has read Peer
// before the next day start overwrites it.
func (r *Rotor) day(k int) {
	m := k % r.Sched.Matchings()
	for t := range r.Cfg.Tors {
		dst := r.Sched.DstOf(t, m)
		r.voq[t].SetActive(dst)
		circ := r.CircuitPort(t)
		circ.Peer = r.net.Switches[dst]
		circ.Resume()
	}
	r.reroute()
	r.net.Eng.After(r.Cfg.Day, func() {
		// Night: circuits go dark for reconfiguration.
		for t := range r.Cfg.Tors {
			r.CircuitPort(t).Pause()
		}
		r.reroute()
		r.net.Eng.After(r.Cfg.Night, func() { r.day(k + 1) })
	})
}

// reroute brings every ToR's tables in line with the calendar: traffic
// to a rack rides the circuit exactly while the circuit to it is up or
// within Prebuffer of coming up, and the packet network otherwise. It
// runs at the only instants the answer changes — day start, day end,
// Prebuffer before a day start — ahead of any packet event of that
// instant (it was scheduled earlier), and after the first week it
// touches only tables: the switch has both candidate lists interned.
// A rack's routes are one table entry, its ToR's.
func (r *Rotor) reroute() {
	now, n := r.net.Eng.Now(), r.Cfg.Tors
	addr := r.net.Router.Addressing()
	for src := range n {
		for dst := range n {
			on := r.Sched.ActiveOrUpcoming(src, dst, now, r.Cfg.Prebuffer)
			if on == r.onCircuit[src*n+dst] {
				continue
			}
			r.onCircuit[src*n+dst] = on
			via := r.viaPacket
			if on {
				via = r.viaCircuit
			}
			rack := addr.Of(r.net.HostID(dst * r.Cfg.ServersPerTor)).Edge()
			r.net.Switches[src].Install(rack, via)
		}
	}
}
