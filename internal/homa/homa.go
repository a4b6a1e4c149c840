// Package homa implements a receiver-driven, message-oriented transport
// modelled on HOMA (Montazeri et al., SIGCOMM 2018), the receiver-driven
// baseline of §4. The mechanisms the paper's evaluation exercises are all
// present:
//
//   - Unscheduled data: the first RTTBytes of every message leave at line
//     rate immediately, at a priority chosen from size cutoffs.
//   - Scheduled data: the remainder waits for grants. The receiver ranks
//     incomplete messages by remaining bytes (SRPT) and keeps the top
//     `Overcommit` messages granted one RTTBytes window ahead of what it
//     has received, mapping rank to the scheduled priority levels.
//   - Network priorities: packets carry the 8-level class the switches'
//     strict-priority queues (queue.Prio) serve.
//   - Timeout-driven resends: the receiver requests the first hole of a
//     stalled message; needed because the paper runs HOMA on switches
//     with finite, Dynamic-Thresholds-managed buffers (§4.2).
//
// Each message is a flow of its own, found at both ends by its FlowID in
// the network's packet.FlowTable. A receiver ranks only its live
// messages; a finished one keeps its slot, marked done, so a late
// duplicate is recognised and dropped.
//
// The paper's finding — HOMA cannot control congestion on the
// oversubscribed ToR uplinks of a 4:1 fat-tree, and limited buffers hurt
// its incast behaviour — is an emergent property of exactly these
// mechanisms.
package homa

import (
	"cmp"
	"slices"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Config carries host-wide HOMA parameters. Packets carry packet.MSS
// payload bytes; the unscheduled window RTTBytes is the host's HostBw·τ
// (the paper's RTTBytes configuration, §4.1); and a stalled message's
// hole-repair request waits transport.RTO(BaseRTT).
type Config struct {
	BaseRTT sim.Duration
	// Overcommit is the number of messages granted concurrently (the
	// paper sweeps 1–6; its main results use 1, Appendix D the rest).
	// Default 1.
	Overcommit int
}

// unschedCutoffs maps message size to unscheduled priority: size ≤
// unschedCutoffs[i] → priority i. The cutoffs fit the web-search
// workload.
var unschedCutoffs = [...]int64{3_000, 30_000, 300_000, 1 << 62}

// schedBase is the first (best) priority level used for scheduled data,
// one past the unscheduled levels; ranks map to
// schedBase..packet.MaxPriority.
const schedBase = uint8(len(unschedCutoffs))

// Msg is one sender-side message: the send half of its flow's slot.
type Msg struct {
	ID   uint64
	Flow packet.FlowID
	Dst  packet.NodeID
	Size int64

	src       *Host
	sent      int64 // bytes handed to the NIC
	granted   int64 // receiver permission boundary
	schedPrio uint8 // priority assigned by the latest grant
	done      bool
}

// recvMsg is one receiver-side message, set up by its first packet.
type recvMsg struct {
	at      *Host // the receiving host, once a packet has arrived
	id      uint64
	flow    packet.FlowID
	src     packet.NodeID
	size    int64
	prio    uint8 // current scheduled priority
	got     transport.IntervalSet
	granted int64
	start   sim.Time // SentAt of the earliest packet seen
	lastHit sim.Time
	resend  sim.Timer // hole-repair timer, bound by the first packet
	done    bool
}

// slot is one message in the flow table.
type slot struct {
	snd Msg
	rcv recvMsg
}

func (m *recvMsg) received() int64  { return m.got.Bytes() }
func (m *recvMsg) remaining() int64 { return m.size - m.received() }

// Host is a HOMA endpoint. It satisfies the topo.Node interface.
type Host struct {
	id   packet.NodeID
	eng  *sim.Engine
	cfg  Config
	nic  *link.Port
	pool *packet.Pool

	resendAfter sim.Duration // hole-repair timeout, transport.RTO(BaseRTT)

	flows  *packet.FlowTable[slot] // the network's, or the host's own
	live   []*recvMsg              // incomplete messages this host receives
	nextID uint64

	// OnMessageDone fires at the *receiver* when a message's last byte
	// arrives (HOMA completion is receiver-observed).
	OnMessageDone func(transport.Completion)

	rcvdTotal int64
	rcvdRaw   int64
}

// Init makes h a HOMA host, in place: a fabric's hosts come in one
// array, not one allocation each.
func (h *Host) Init(eng *sim.Engine, id packet.NodeID, cfg Config) {
	if cfg.Overcommit == 0 {
		cfg.Overcommit = 1
	}
	*h = Host{id: id, eng: eng, cfg: cfg, resendAfter: transport.RTO(cfg.BaseRTT)}
}

// liveRoom is how many incomplete messages a receiver given room by
// LiveRoom holds before its live list grows on its own.
const liveRoom = 4

// LiveRoom gives each of hosts, after Init, a live-message list with
// room for liveRoom messages, carved from one array, so a fabric's
// receivers allocate no list of their own until one holds more
// incomplete messages at once.
func LiveRoom(hosts []Host) {
	room := make([]*recvMsg, len(hosts)*liveRoom)
	for i := range hosts {
		hosts[i].live = room[i*liveRoom : i*liveRoom : (i+1)*liveRoom]
	}
}

// ID implements topo.Node.
func (h *Host) ID() packet.NodeID { return h.id }

// SetUplink implements topo.Node. A host with no shared packet pool or
// flow table by then gets a private one (see transport.Host.SetUplink).
func (h *Host) SetUplink(p *link.Port) {
	h.nic = p
	if h.pool == nil {
		h.pool = packet.NewPool()
	}
	if h.flows == nil {
		h.flows = new(packet.FlowTable[slot])
	}
}

// ShareFlows adopts the network's flow table (see
// transport.Host.ShareFlows).
func (h *Host) ShareFlows(t packet.Table) packet.Table {
	h.flows = packet.ShareTable[slot](t)
	return h.flows
}

// SetPool shares an engine-wide packet free list (see transport.Host.SetPool).
func (h *Host) SetPool(pl *packet.Pool) {
	if pl != nil {
		h.pool = pl
	}
}

// NIC implements topo.Node.
func (h *Host) NIC() *link.Port { return h.nic }

// ReceivedTotal returns payload bytes received across all messages,
// deduplicated: a retransmitted range counts once.
func (h *Host) ReceivedTotal() int64 { return h.rcvdTotal }

// DeliveredPayload returns the raw payload bytes delivered to this
// host, counting retransmitted duplicates — the receiver-side word of
// the network-wide byte-conservation identity, which must match what
// the wire actually carried here.
func (h *Host) DeliveredPayload() int64 { return h.rcvdRaw }

// ReceivedBytes returns payload bytes received for one flow,
// deduplicated.
func (h *Host) ReceivedBytes(flow packet.FlowID) int64 {
	if s := h.flows.Lookup(flow); s != nil && s.rcv.at == h {
		return s.rcv.received()
	}
	return 0
}

func (h *Host) rttBytes() int64 { return h.nic.Rate.BDP(h.cfg.BaseRTT) }

func (h *Host) unschedPrio(size int64) uint8 {
	for i, c := range unschedCutoffs {
		if size <= c {
			return uint8(i)
		}
	}
	return uint8(len(unschedCutoffs) - 1)
}

// Send starts a new message of size bytes toward dst at time `at`, as
// flow flow: a message is a flow of its own.
func (h *Host) Send(flow packet.FlowID, dst packet.NodeID, size int64, at sim.Time) *Msg {
	h.nextID++
	m := &h.flows.Slot(flow).snd
	*m = Msg{ID: h.nextID<<16 | uint64(h.id&0xFFFF), Flow: flow, Dst: dst, Size: size, src: h}
	h.eng.AtCall(at, launch, m)
	return m
}

func launch(arg any) {
	m := arg.(*Msg)
	m.granted = min(m.Size, m.src.rttBytes())
	m.src.pump(m)
}

// pump transmits every byte the message is currently allowed to send.
// Unscheduled bytes ride at the size-based priority; scheduled bytes at
// the priority the latest grant assigned (carried in m via grant packets).
func (h *Host) pump(m *Msg) {
	rtt := h.rttBytes()
	for m.sent < m.granted {
		n := min(packet.MSS, m.granted-m.sent)
		unsched := m.sent < rtt
		prio := h.unschedPrio(m.Size)
		if !unsched {
			prio = m.schedPrio
		}
		h.emit(m, m.sent, n, prio)
		m.sent += n
	}
}

func (h *Host) emit(m *Msg, seq, n int64, prio uint8) {
	p := h.pool.Get()
	p.Kind = packet.Data
	p.Flow = m.Flow
	p.Src = h.id
	p.Dst = m.Dst
	p.SetSeq(seq)
	p.PayloadLen = int32(n)
	p.MsgID = m.ID
	p.SetMsgLen(m.Size)
	p.Priority = prio
	p.SetSentAt(h.eng.Now())
	h.nic.Send(p)
}

// Receive implements link.Receiver. Data and grant packets are fully
// consumed here and recycled into the pool on return.
func (h *Host) Receive(p *packet.Packet) {
	switch p.Kind {
	case packet.Data:
		h.onData(p)
	case packet.Grant:
		h.onGrant(p)
	}
	h.pool.Put(p)
}

// grant Seq sentinels: -1 = plain grant, msgComplete = receiver got all
// bytes and the sender may release its state.
const (
	plainGrant  int64 = -1
	msgComplete int64 = -2
)

func (h *Host) onGrant(p *packet.Packet) {
	s := h.flows.Lookup(p.Flow)
	if s == nil || s.snd.src != h || s.snd.done {
		return
	}
	m := &s.snd
	if p.Seq() == msgComplete {
		m.done = true // completion notification
		return
	}
	m.schedPrio = p.Priority
	if p.Seq() >= 0 && p.PayloadLen > 0 {
		// Resend request for [Seq, Seq+PayloadLen).
		h.emit(m, p.Seq(), int64(p.PayloadLen), p.Priority)
	}
	if p.GrantOffset() > m.granted {
		m.granted = min(p.GrantOffset(), m.Size)
		h.pump(m)
	}
}

func (h *Host) onData(p *packet.Packet) {
	h.rcvdRaw += int64(p.PayloadLen)
	m := &h.flows.Slot(p.Flow).rcv
	if m.at == nil {
		m.at, m.id, m.flow, m.src, m.size, m.start = h, p.MsgID, p.Flow, p.Src, p.MsgLen(), p.SentAt()
		m.granted = min(m.size, h.rttBytes())
		m.resend.Bind(h.eng, onResend, m)
		h.live = append(h.live, m)
	}
	if m.done {
		return
	}
	if p.SentAt() < m.start {
		m.start = p.SentAt()
	}
	before := m.received()
	m.got.Add(p.Seq(), p.End())
	h.rcvdTotal += m.received() - before
	m.lastHit = h.eng.Now()

	if m.remaining() <= 0 {
		m.done = true
		m.resend.Stop()
		i := slices.Index(h.live, m) // retire the message: schedule ranks live ones only
		h.live = slices.Delete(h.live, i, i+1)
		// Completion notice releases sender state.
		h.sendGrant(m, m.size, 0, msgComplete, 0)
		if h.OnMessageDone != nil {
			h.OnMessageDone(transport.Completion{
				ID: m.flow, Src: m.src, Dst: h.id, Size: m.size,
				Start: m.start, FCT: h.eng.Now().Sub(m.start),
			})
		}
	} else {
		h.armResend(m)
	}
	h.schedule()
}

// bySRPT orders messages by remaining bytes, then by message ID.
func bySRPT(a, b *recvMsg) int {
	return cmp.Or(cmp.Compare(a.remaining(), b.remaining()), cmp.Compare(a.id, b.id))
}

// schedule is the receiver's SRPT grant machinery. It ranks the live
// messages that still wait for grants and grants the top Overcommit one
// RTTBytes ahead of what has arrived; sorting the live list in place
// allocates nothing.
func (h *Host) schedule() {
	slices.SortFunc(h.live, bySRPT)
	rtt := h.rttBytes()
	rank := 0
	for _, m := range h.live {
		if rank == h.cfg.Overcommit {
			break
		}
		if m.size <= m.granted {
			continue
		}
		prio := schedBase + uint8(rank)
		if prio > packet.MaxPriority {
			prio = packet.MaxPriority
		}
		m.prio = prio
		want := min(m.received()+rtt, m.size)
		if want > m.granted {
			m.granted = want
			h.sendGrant(m, want, prio, plainGrant, 0)
		}
		rank++
	}
}

// sendGrant emits a grant/control packet. resendSeq ≥ 0 requests a
// retransmission of [resendSeq, resendSeq+resendLen).
func (h *Host) sendGrant(m *recvMsg, offset int64, prio uint8, resendSeq int64, resendLen int32) {
	p := h.pool.Get()
	p.Kind = packet.Grant
	p.Flow = m.flow
	p.Src = h.id
	p.Dst = m.src
	p.MsgID = m.id
	p.SetGrantOffset(offset)
	p.Priority = prio
	p.SetSeq(resendSeq)
	p.PayloadLen = resendLen
	h.nic.Send(p)
}

func (h *Host) armResend(m *recvMsg) {
	if !m.resend.Armed() {
		m.resend.ArmAfter(h.resendAfter)
	}
}

func onResend(arg any) {
	m := arg.(*recvMsg)
	if m.done {
		return
	}
	h := m.at
	if h.eng.Now().Sub(m.lastHit) < h.resendAfter {
		h.armResend(m)
		return
	}
	// Request the first hole below the granted boundary.
	holeStart := m.got.Cumulative()
	n := min(packet.MSS, m.granted-holeStart)
	if n > 0 {
		h.sendGrant(m, m.granted, m.prio, holeStart, int32(n))
	}
	h.armResend(m)
}
