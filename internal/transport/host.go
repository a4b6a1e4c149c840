package transport

import (
	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Config carries host-wide transport parameters. Segments carry
// packet.MSS payload bytes, and ACKs and CNPs travel in the highest
// priority class (0).
type Config struct {
	BaseRTT sim.Duration // τ: maximum base RTT of the topology (§4.1)
	// DupAckThreshold triggers fast retransmit (default 3). Negative
	// disables fast retransmit entirely — used on circuit networks where
	// day/night path switches reorder packets routinely.
	DupAckThreshold int
}

// cnpInterval is the DCQCN notification point's minimum gap between
// CNPs of one flow (Zhu et al., SIGCOMM 2015).
const cnpInterval = 50 * sim.Microsecond

// RTO is the retransmission timeout for a fabric of base RTT τ: 40·τ,
// at least 1 ms. HOMA's resend timer uses the same rule.
func RTO(baseRTT sim.Duration) sim.Duration {
	return max(40*baseRTT, sim.Millisecond)
}

// Completion is a finished flow, as either transport reports it: a
// window flow when its last byte is acknowledged, a HOMA message when its
// last byte arrives. FCT counts from Start.
type Completion struct {
	ID       packet.FlowID
	Src, Dst packet.NodeID
	Size     int64
	Start    sim.Time
	FCT      sim.Duration
}

// Host is a server endpoint running the window transport.
type Host struct {
	id    packet.NodeID
	eng   *sim.Engine
	cfg   Config
	rto   sim.Duration
	nic   *link.Port
	pool  *packet.Pool
	flows *packet.FlowTable[slot] // the network's, or the host's own

	// OnFlowDone is invoked when a sized flow is fully acknowledged.
	OnFlowDone func(Completion)
	// OnData observes every data packet delivered to this host, after
	// receiver bookkeeping (experiment instrumentation: per-packet
	// latency, CE fractions, ...). The packet's INT stack has moved to
	// its ACK by then: Hops() is nil.
	OnData func(p *packet.Packet)

	rcvdTotal int64 // payload bytes received across all flows
}

// slot is one flow in the flow table: the sending half, written at the
// flow's source, and the receiving half, written at its destination.
type slot struct {
	snd Flow
	rcv rcvState
}

// rcvState is per-flow receiver bookkeeping.
type rcvState struct {
	at      *Host // the receiving host, once a packet has arrived
	got     IntervalSet
	bytes   int64 // payload bytes received (including retransmits)
	lastCNP sim.Time
	sawCNP  bool
}

// NewHost creates a transport host. The NIC uplink is attached later by
// the topology builder via SetUplink.
func NewHost(eng *sim.Engine, id packet.NodeID, cfg Config) *Host {
	h := new(Host)
	h.Init(eng, id, cfg)
	return h
}

// Init makes h the host NewHost would build, in place: a fabric's hosts
// can then come in one array, not one allocation each.
func (h *Host) Init(eng *sim.Engine, id packet.NodeID, cfg Config) {
	if cfg.DupAckThreshold == 0 {
		cfg.DupAckThreshold = 3
	}
	*h = Host{id: id, eng: eng, cfg: cfg, rto: RTO(cfg.BaseRTT)}
}

// ID returns the host's node ID.
func (h *Host) ID() packet.NodeID { return h.id }

// SetUplink attaches the NIC egress port. A host that has no shared
// packet pool or flow table by then gets a private one, so standalone use
// needs no setup.
func (h *Host) SetUplink(p *link.Port) {
	h.nic = p
	if h.pool == nil {
		h.pool = packet.NewPool()
	}
	if h.flows == nil {
		h.flows = new(packet.FlowTable[slot])
	}
}

// ShareFlows adopts t, its network's flow table, and returns it; the
// network's first host, handed nil, starts it (see packet.ShareTable).
func (h *Host) ShareFlows(t packet.Table) packet.Table {
	h.flows = packet.ShareTable[slot](t)
	return h.flows
}

// SetPool shares an engine-wide packet free list with the host (topology
// builders call this, before SetUplink, so every endpoint and switch
// recycles through one pool).
func (h *Host) SetPool(pl *packet.Pool) {
	if pl != nil {
		h.pool = pl
	}
}

// NIC returns the host's egress port.
func (h *Host) NIC() *link.Port { return h.nic }

// ReceivedBytes returns the payload bytes received for one flow,
// counted on arrival: a retransmitted range that had already arrived
// counts again, so this is not deduplicated goodput.
func (h *Host) ReceivedBytes(id packet.FlowID) int64 {
	if s := h.flows.Lookup(id); s != nil && s.rcv.at == h {
		return s.rcv.bytes
	}
	return 0
}

// ReceivedTotal returns payload bytes received across all flows. The
// window transport counts raw arrivals (retransmitted ranges included).
func (h *Host) ReceivedTotal() int64 { return h.rcvdTotal }

// DeliveredPayload returns the raw payload bytes delivered to this
// host — for the window transport identical to ReceivedTotal, named
// separately so the byte-conservation identity reads the same word on
// every host type (HOMA's ReceivedTotal deduplicates).
func (h *Host) DeliveredPayload() int64 { return h.rcvdTotal }

// Receive implements link.Receiver. Every arriving packet is consumed
// here: data packets are recycled after receiver bookkeeping (and the
// OnData hook), ACKs after the sending flow processed them, CNPs after
// notifying the reaction point. Nothing downstream may retain a *Packet
// past these calls — see the pooling invariants in PERF.md.
func (h *Host) Receive(p *packet.Packet) {
	switch p.Kind {
	case packet.Data:
		h.onData(p)
	case packet.Ack:
		if f := h.Flow(p.Flow); f != nil {
			f.onAck(p)
		}
	case packet.CNP:
		if f := h.Flow(p.Flow); f != nil {
			if n, ok := f.CC.(cc.CNPHandler); ok {
				n.OnCNP(h.eng.Now())
			}
		}
	}
	h.pool.Put(p)
}

func (h *Host) onData(p *packet.Packet) {
	rs := &h.flows.Slot(p.Flow).rcv
	if rs.at == nil {
		rs.at = h
	}
	rs.got.Add(p.Seq(), p.End())
	rs.bytes += int64(p.PayloadLen)
	h.rcvdTotal += int64(p.PayloadLen)

	// DCQCN NP side: at most one CNP per flow per cnpInterval while CE
	// marks keep arriving.
	if p.CE && p.ECT {
		now := h.eng.Now()
		if !rs.sawCNP || now.Sub(rs.lastCNP) >= cnpInterval {
			rs.lastCNP = now
			rs.sawCNP = true
			cnp := h.pool.Get()
			cnp.Kind = packet.CNP
			cnp.Flow = p.Flow
			cnp.Src = h.id
			cnp.Dst = p.Src
			h.nic.Send(cnp)
		}
	}

	ack := h.pool.Get()
	ack.Kind = packet.Ack
	ack.Flow = p.Flow
	ack.Src = h.id
	ack.Dst = p.Src
	ack.SetAckSeq(rs.got.Cumulative())
	ack.SetEchoSent(p.SentAt())
	ack.EchoECN = p.CE
	// The ACK carries the INT records collected on the data path and
	// keeps collecting on the return path (§3.3: the sender receives
	// metadata from all switches along the round trip). It takes the data
	// packet's stack over whole, storage included; p is consumed here and
	// nothing reads its stack again.
	ack.TakeHops(p)
	// No SentAt: its word holds EchoSent on an ACK, and nothing reads a
	// send time off an ACK or a CNP.
	h.nic.Send(ack)
	if h.OnData != nil {
		h.OnData(p)
	}
}

// Flow returns the host's sending flow with the given ID, or nil.
func (h *Host) Flow(id packet.FlowID) *Flow {
	if s := h.flows.Lookup(id); s != nil && s.snd.Src == h {
		return &s.snd
	}
	return nil
}
