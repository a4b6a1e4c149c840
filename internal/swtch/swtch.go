// Package swtch models an output-queued datacenter switch: ECMP
// forwarding, a shared-memory buffer governed by Dynamic Thresholds
// (§4.1), RED-style ECN marking for DCQCN, and INT stamping at dequeue —
// the egress queue length, cumulative transmitted bytes, timestamp and
// link bandwidth exactly as the paper's Tofino pipeline exports (§3.6).
package swtch

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/buffer"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// ECNConfig is RED-style marking: below KMin never mark, above KMax
// always mark, linear probability PMax in between. The zero value
// disables marking.
type ECNConfig struct {
	KMin int64
	KMax int64
	PMax float64
}

// Enabled reports whether marking is configured.
func (e ECNConfig) Enabled() bool { return e.KMax > 0 }

// Config carries per-switch settings.
type Config struct {
	// BufferBytes is the shared-memory pool size; 0 means unbounded.
	BufferBytes int64
	// Alpha is the Dynamic Thresholds factor (default 1).
	Alpha float64
	// INT enables telemetry stamping at dequeue.
	INT bool
	// ECN configures RED marking of ECN-capable packets.
	ECN ECNConfig
	// Seed feeds the marking RNG so runs stay deterministic.
	Seed int64
	// Pool, when set, recycles admission-dropped packets into the
	// engine's shared packet free list and supplies the hop blocks INT
	// stamping attaches.
	Pool *packet.Pool
	// Ports, Groups and Store, when they have room, are where the port
	// list, the distinct candidate lists and those lists' ports grow: a
	// fabric hands each switch empty slices of three arrays, with room
	// for one, one and two a port of the switch's degree, so no switch
	// grows a list of its own.
	Ports  []*link.Port
	Groups [][]int
	Store  []int
}

// Switch is one switch instance. It implements link.Receiver.
type Switch struct {
	id    packet.NodeID
	eng   *sim.Engine
	cfg   Config
	share buffer.Shared
	ports []*link.Port
	rng   *rand.Rand // marking RNG, built by the first probabilistic mark

	// Forwarding state. table holds 1 + an index into groups, 0 for "no
	// route"; groups are the distinct candidate port lists installed so
	// far, each stored once however many entries share it and never
	// modified, carved from store. A fabric switch's table is keyed by
	// destination edge switch, plus one entry per host of its own: addr
	// maps a destination to its entry (route.Addressing.Index) and own is
	// the switch's edge ordinal. A switch given no addressing (addr nil)
	// is keyed by destination node ID.
	table  []uint32
	groups [][]int
	store  []int
	addr   *route.Addressing
	own    int

	marked uint64
}

// New creates a switch.
func New(eng *sim.Engine, id packet.NodeID, cfg Config) *Switch {
	s := new(Switch)
	s.Init(eng, id, cfg)
	return s
}

// Init makes s the switch New would build, in place: a fabric's switches
// can then come in one array, not one allocation each.
func (s *Switch) Init(eng *sim.Engine, id packet.NodeID, cfg Config) {
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	ports, groups, store := cfg.Ports[:0], cfg.Groups[:0], cfg.Store[:0]
	cfg.Ports, cfg.Groups, cfg.Store = nil, nil, nil
	*s = Switch{
		id:     id,
		eng:    eng,
		cfg:    cfg,
		share:  buffer.Shared{Total: cfg.BufferBytes, Alpha: cfg.Alpha},
		ports:  ports,
		groups: groups,
		store:  store,
	}
}

// Shared exposes the buffer pool (metrics).
func (s *Switch) Shared() *buffer.Shared { return &s.share }

// Ports returns the egress ports in creation order.
func (s *Switch) Ports() []*link.Port { return s.ports }

// Marked returns the number of CE marks applied.
func (s *Switch) Marked() uint64 { return s.marked }

// Dropped returns the number of admission drops, summed over the ports,
// which count them.
func (s *Switch) Dropped() uint64 {
	var n uint64
	for _, pt := range s.ports {
		n += pt.Drops()
	}
	return n
}

// AddPort creates an egress port toward peer with the given line rate,
// propagation delay, and queue discipline (nil for a FIFO), whose
// device is the switch: the port admits into the shared buffer and
// stamps ECN and INT at dequeue through Admit and OnDequeue. It returns
// the port's index for routing tables.
func (s *Switch) AddPort(rate units.BitRate, delay sim.Duration, peer link.Receiver, q queue.Queue) int {
	return s.AddPortFrom(nil, rate, delay, peer, q)
}

// AddPortFrom is AddPort with the port carved from b (see link.Block).
func (s *Switch) AddPortFrom(b *link.Block, rate units.BitRate, delay sim.Duration, peer link.Receiver, q queue.Queue) int {
	pt := b.NewPort(s.eng, rate, delay, peer)
	pt.Pool = s.cfg.Pool
	if q != nil {
		pt.Q = q
	}
	pt.Dev = s
	s.ports = append(s.ports, pt)
	return len(s.ports) - 1
}

// Admit implements link.Device: a packet enters pt's queue if the
// shared buffer's Dynamic Threshold lets that queue grow by it.
func (s *Switch) Admit(pt *link.Port, p *packet.Packet) bool {
	return s.share.Admit(pt.Q.Bytes(), p.WireLen())
}

// OnDequeue implements link.Device: release the packet's buffer share,
// then mark ECN and stamp INT from pt's state.
func (s *Switch) OnDequeue(pt *link.Port, p *packet.Packet) {
	// Release the memory reserved at admission before stamping grows the
	// packet's wire size.
	s.share.Release(p.WireLen())

	// Congestion signals see both fidelities: the real queue plus any
	// fluid backlog the hybrid coupler folded into the port, so INT qlen
	// and ECN marks reflect background load that is never packetized.
	qlen := pt.QueueBytes() + pt.VirtualBacklog()
	if p.ECT && s.cfg.ECN.Enabled() && s.shouldMark(qlen) {
		if !p.CE {
			s.marked++
		}
		p.CE = true
	}
	if s.cfg.INT {
		s.cfg.Pool.Stamp(p, telemetry.HopRecord{
			QLen:    qlen,
			TxBytes: pt.TxBytes(),
			TS:      s.eng.Now(),
			Rate:    pt.Rate,
		})
	}
}

func (s *Switch) shouldMark(qlen int64) bool {
	e := s.cfg.ECN
	switch {
	case qlen <= e.KMin:
		return false
	case qlen >= e.KMax:
		return true
	default:
		if s.rng == nil {
			// Only a queue inside the (KMin, KMax) ramp draws, and most
			// switches never see one: the 4.9 KB source waits for it.
			s.rng = rand.New(rand.NewSource(s.cfg.Seed ^ int64(s.id)<<20 ^ 0x9E3779B9))
		}
		prob := e.PMax * float64(qlen-e.KMin) / float64(e.KMax-e.KMin)
		return s.rng.Float64() < prob
	}
}

// SetRoute installs the ECMP candidate ports for destination dst on a
// switch with no fabric addressing, whose table is keyed by node ID. A
// fabric switch's entries are per edge and its router installs them.
func (s *Switch) SetRoute(dst packet.NodeID, portIdx []int) {
	if dst < 0 {
		panic(fmt.Sprintf("swtch: switch %d: negative destination %d", s.id, dst))
	}
	if s.addr != nil {
		panic(fmt.Sprintf("swtch: switch %d: SetRoute(%d) on a switch keyed by edge", s.id, dst))
	}
	s.PresizeRoutes(int(dst) + 1)
	s.table[dst] = s.intern(portIdx)
}

// Attach implements route.Installer: from here on the table is keyed by
// the fabric's addressing, one entry per edge plus one per own host, and
// is table, zeroed and that long.
func (s *Switch) Attach(a *route.Addressing, own int, table []uint32) {
	s.addr, s.own, s.table = a, own, table
}

// Install implements route.Installer: table entry i gets the candidate
// port list portIdx, which is copied if it is new to the switch, so the
// caller may reuse it. On a switch with no fabric addressing entry i is
// node i, inside the presized table.
func (s *Switch) Install(i int, portIdx []int) {
	s.table[i] = s.intern(portIdx)
}

// intern returns the table value for a candidate list: 1 + the index of
// the group with exactly these ports in this order, added if the switch
// has not seen it, or 0 for an empty list. A switch holds a few dozen
// groups at most (one per neighbour set), so the search is a scan.
func (s *Switch) intern(portIdx []int) uint32 {
	if len(portIdx) == 0 {
		return 0
	}
	for gi, g := range s.groups {
		if slices.Equal(g, portIdx) {
			return uint32(gi) + 1
		}
	}
	if s.groups == nil {
		// One block for the lists and one for their headers, unless the
		// fabric carved them (Config.Groups, Config.Store): an intact
		// fabric needs a group per host port and one per set of
		// switch-facing next hops, under one per port. append takes over
		// beyond that; groups carved earlier keep the block they are in.
		s.groups = make([][]int, 0, len(s.ports))
		s.store = make([]int, 0, 2*len(s.ports))
	}
	start := len(s.store)
	s.store = append(s.store, portIdx...)
	s.groups = append(s.groups, s.store[start:len(s.store):len(s.store)])
	return uint32(len(s.groups))
}

// PresizeRoutes makes the node-ID table of a switch with no fabric
// addressing cover destinations 0..destinations-1, so SetRoute fills it
// without regrowing it.
func (s *Switch) PresizeRoutes(destinations int) {
	if n := destinations - len(s.table); n > 0 {
		s.table = append(s.table, make([]uint32, n)...)
	}
}

// Route returns the candidate egress ports for dst, nil if none is
// installed or dst names no host. The slice is shared between
// destinations: read only.
func (s *Switch) Route(dst packet.NodeID) []int {
	i := uint(uint32(dst)) // a negative ID wraps past any table length
	if s.addr != nil {
		i = uint(s.addr.Index(dst, s.own)) // -1 wraps the same way
	}
	if t := s.table; i < uint(len(t)) && t[i] != 0 {
		return s.groups[t[i]-1]
	}
	return nil
}

// Receive implements link.Receiver: forward the packet toward its
// destination, hashing the flow's addressing tuple over the candidate
// ports the routing control plane installed (see internal/route). The
// path is an address load, a table index, a group load and one hash —
// no map, no allocation per packet.
func (s *Switch) Receive(p *packet.Packet) {
	cand := s.Route(p.Dst)
	if len(cand) == 0 {
		panic(fmt.Sprintf("swtch: switch %d has no route to %d", s.id, p.Dst))
	}
	idx := cand[0]
	if len(cand) > 1 {
		idx = cand[route.FlowHash(p.Src, p.Dst, p.Flow)%uint64(len(cand))]
	}
	s.ports[idx].Send(p)
}
