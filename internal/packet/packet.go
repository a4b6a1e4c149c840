// Package packet defines the packet model shared by hosts, switches and
// transports, and the pool that recycles packets and their INT storage.
// Packets are plain structs passed by pointer through the simulator; the
// INT header rides along as native telemetry.HopRecord values.
package packet

import (
	"fmt"

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

func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case CNP:
		return "CNP"
	case Grant:
		return "GRANT"
	case Request:
		return "REQ"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

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

// Packet is one simulated packet: 128 bytes, two cache lines. The first
// line holds what every hop reads — forwarding hashes Flow, Src and Dst,
// WireLen reads PayloadLen and len(Hops), queues and switches read the
// class and ECN bytes, and a queue links the packet through Next — and
// the second what only the endpoints touch.
// A field not relevant to a packet's Kind is zero. TestPacketLayout pins
// the size and the split.
type Packet struct {
	// INT stack; one record per traversed switch egress port. Nil until
	// the first switch stamps the packet (Pool.Stamp, which sizes the
	// storage to the depth reached), and nil again on a data packet whose
	// ACK took the stack over.
	Hops []telemetry.HopRecord

	Flow       FlowID
	Src        NodeID
	Dst        NodeID
	PayloadLen int32 // Data: [Seq, Seq+PayloadLen) is the byte range carried
	Kind       Kind

	// Network.
	Priority uint8 // strict-priority class (0 = highest)
	ECT      bool  // ECN-capable transport
	CE       bool  // congestion experienced (set by switches)

	Rtx         bool // Data: retransmission (excluded from goodput accounting)
	EchoECN     bool // Ack: the acknowledged data packet arrived CE-marked
	Unscheduled bool // HOMA Data: part of the unscheduled burst

	// Next links the packet into the one queue it waits in (queue.FIFO);
	// nil when it waits in none. Only internal/queue sets it.
	Next *Packet

	Seq int64 // Transport (Data): first byte carried

	ID uint64
	// SentAt is set by the sending host when the packet enters its NIC
	// queue, not when it is serialized: RTT samples include NIC queueing.
	SentAt sim.Time

	// Transport (Ack).
	AckSeq   int64    // cumulative: receiver has everything below AckSeq
	EchoSent sim.Time // SentAt of the data packet being acknowledged

	// HOMA.
	MsgID       uint64
	MsgLen      int64 // total message length, carried on every data packet
	GrantOffset int64 // Grant: sender may transmit up to this offset
}

// WireLen returns the packet's size on the wire in bytes, including the
// INT option if any hop records are attached.
func (p *Packet) WireLen() int64 {
	n := int64(HeaderSize) + int64(p.PayloadLen)
	if len(p.Hops) > 0 {
		n += int64(telemetry.WireLen(len(p.Hops)))
	}
	return n
}

// End returns the byte offset just past the payload carried.
func (p *Packet) End() int64 { return p.Seq + int64(p.PayloadLen) }

// String renders a compact debugging description.
func (p *Packet) String() string {
	switch p.Kind {
	case Data:
		return fmt.Sprintf("%v flow=%d [%d,%d) %d→%d", p.Kind, p.Flow, p.Seq, p.End(), p.Src, p.Dst)
	case Ack:
		return fmt.Sprintf("%v flow=%d ack=%d %d→%d", p.Kind, p.Flow, p.AckSeq, p.Src, p.Dst)
	default:
		return fmt.Sprintf("%v flow=%d %d→%d", p.Kind, p.Flow, p.Src, p.Dst)
	}
}
