// Package packet defines the packet model shared by hosts, switches and
// transports, and the pool that recycles packets and their INT storage.
// Packets are plain structs passed by pointer through the simulator; the
// INT header rides along as native telemetry.HopRecord values.
package packet

import (
	"unsafe"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// NodeID identifies a host or switch. IDs are assigned by the topology
// builder and are unique across the network.
type NodeID int32

// FlowID identifies a transport flow (or HOMA message stream).
type FlowID uint64

// Kind discriminates packet roles.
type Kind uint8

// Packet kinds.
const (
	Data    Kind = iota // transport payload
	Ack                 // cumulative acknowledgment, echoes INT
	CNP                 // DCQCN congestion notification packet
	Grant               // HOMA grant
	Request             // application-level request (incast trigger)
)

// Standard sizes in bytes. MSS plus HeaderSize matches the 25G RDMA
// configuration used by the HPCC/PowerTCP simulations (1000 B payload,
// 48 B of headers); the INT option grows the wire size per hop.
const (
	MSS         = 1000
	HeaderSize  = 48
	AckSize     = HeaderSize // pure ACK wire size (before INT echo)
	GrantSize   = HeaderSize
	CNPSize     = HeaderSize
	MaxPriority = 7 // switches implement 8 strict priority levels
)

// Packet is one simulated packet: 80 bytes on a 64-bit host. The first
// 48 bytes hold what every kind carries and every hop reads — forwarding
// hashes Flow, Src and Dst, WireLen reads PayloadLen and the hop count,
// queues and switches read the class and ECN bytes, and a queue links
// the packet through Next. The 32 bytes after them are words a kind
// owns: MsgID, and three words each shared by kinds that never meet in
// one packet, reached through accessors named for the kinds that own
// them (Seq, SentAt, AckSeq, EchoSent, MsgLen, GrantOffset). A word read
// through another kind's accessor holds whatever its owner wrote, not
// zero.
// TestPacketLayout pins the size and the split.
type Packet struct {
	// INT stack; one record per traversed switch egress port, read
	// through Hops. Nil until the first switch stamps the packet
	// (Pool.Stamp, which sizes the storage to the depth reached), and nil
	// again on a data packet whose ACK took the stack over (TakeHops).
	hops *telemetry.HopRecord

	// Next links the packet into the one queue it waits in (queue.FIFO);
	// nil when it waits in none. Only internal/queue sets it.
	Next *Packet

	Flow       FlowID
	Src        NodeID
	Dst        NodeID
	PayloadLen int32 // Data: [Seq, Seq+PayloadLen) is the byte range carried
	Kind       Kind

	// Network.
	Priority uint8 // strict-priority class (0 = highest)
	ECT      bool  // ECN-capable transport
	CE       bool  // congestion experienced (set by switches)

	EchoECN bool // Ack: the acknowledged data packet arrived CE-marked

	nhops  uint8 // records in the INT stack
	hopCap uint8 // records its storage has room for; tells a pool block by its size

	seq    int64    // Data, Grant: Seq. Ack: AckSeq.
	sent   sim.Time // Data: SentAt. Ack: EchoSent.
	MsgID  uint64   // HOMA Data and Grant: the message
	extent int64    // HOMA Data: MsgLen. Grant: GrantOffset.
}

// Seq is a data packet's first byte carried; on a HOMA grant, the first
// byte of a range the receiver asks to be resent, or a negative
// sentinel.
func (p *Packet) Seq() int64 { return p.seq }

// SetSeq sets a data packet's or a grant's Seq.
func (p *Packet) SetSeq(seq int64) { p.seq = seq }

// SentAt is set on a data packet by the sending host when the packet
// enters its NIC queue, not when it is serialized: RTT samples include
// NIC queueing.
func (p *Packet) SentAt() sim.Time { return p.sent }

// SetSentAt sets a data packet's SentAt.
func (p *Packet) SetSentAt(t sim.Time) { p.sent = t }

// AckSeq is an ACK's cumulative sequence: the receiver has everything
// below it.
func (p *Packet) AckSeq() int64 { return p.seq }

// SetAckSeq sets an ACK's AckSeq.
func (p *Packet) SetAckSeq(seq int64) { p.seq = seq }

// EchoSent is an ACK's copy of the SentAt of the data packet it
// acknowledges.
func (p *Packet) EchoSent() sim.Time { return p.sent }

// SetEchoSent sets an ACK's EchoSent.
func (p *Packet) SetEchoSent(t sim.Time) { p.sent = t }

// MsgLen is a HOMA data packet's total message length, carried on every
// packet of the message.
func (p *Packet) MsgLen() int64 { return p.extent }

// SetMsgLen sets a HOMA data packet's MsgLen.
func (p *Packet) SetMsgLen(n int64) { p.extent = n }

// GrantOffset is a HOMA grant's offset: the sender may transmit up to
// it.
func (p *Packet) GrantOffset() int64 { return p.extent }

// SetGrantOffset sets a grant's GrantOffset.
func (p *Packet) SetGrantOffset(off int64) { p.extent = off }

// Hops returns the INT stack, oldest record first, or nil when the
// packet holds none. The view's capacity is its length, so an append to
// it copies instead of writing into the packet's storage; records are
// read through it, never written.
func (p *Packet) Hops() []telemetry.HopRecord { return unsafe.Slice(p.hops, p.nhops) }

// TakeHops moves from's INT stack onto p, storage and all, and leaves
// from with none: an ACK takes over the stack of the data packet it
// acknowledges. p must hold no stack of its own.
func (p *Packet) TakeHops(from *Packet) {
	p.hops, p.nhops, p.hopCap = from.hops, from.nhops, from.hopCap
	from.hops, from.nhops, from.hopCap = nil, 0, 0
}

// WireLen returns the packet's size on the wire in bytes, including the
// INT option if any hop records are attached.
func (p *Packet) WireLen() int64 {
	n := int64(HeaderSize) + int64(p.PayloadLen)
	if p.nhops > 0 {
		n += int64(telemetry.WireLen(int(p.nhops)))
	}
	return n
}

// End returns the byte offset just past a data packet's payload.
func (p *Packet) End() int64 { return p.seq + int64(p.PayloadLen) }
