// Package link models a switch or host egress port: an output queue
// drained at line rate onto a point-to-point link with fixed propagation
// delay (store-and-forward, as in ns-3's point-to-point model the paper
// evaluates on).
//
// A port calls one Device, its owner, to admit packets and to act at
// dequeue time (INT stamping, ECN marking, shared-buffer accounting),
// mirroring where a real traffic manager takes those actions.
//
// A port allocates nothing of its own past itself: its FIFO and its
// serializer's sim.Timer are fields, and a Block carves many ports from
// one array. The drain loop is allocation-free: each delivery is an
// argument-carrying engine event (sim.Engine.AtCall) whose argument is
// the port and whose callback is one package-level function. A wire
// delivers in send order — each transmission starts after the previous
// serialization ends, the delay is fixed, and serialization time is
// positive — so the delivery pops the oldest packet of the port's wire
// list. Scheduling each delivery at dequeue time (rather than chaining
// deliveries off one timer) keeps same-instant cross-port event
// ordering identical to a per-closure implementation, which the
// determinism suite relies on.
//
// A wire may end on another shard of a partitioned run (internal/psim).
// The port is the same port: its transmission is posted, under the key
// the local delivery would have had, to the mailbox of its shard pair
// (Out), and at the next barrier Arrive puts the packet on the wire list
// and schedules the same delivery on the far shard's engine. Each word
// of the port's ledger has one writer — Send and the serializer on the
// port's shard, the delivery on the far one — so neither side locks.
package link

import (
	"repro/internal/packet"
	"repro/internal/psim"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// Receiver consumes packets delivered by a link.
type Receiver interface {
	Receive(p *packet.Packet)
}

// Device is the owner a port consults: a switch fills it with itself.
type Device interface {
	// Admit is consulted before enqueueing; returning false drops the
	// packet (shared-buffer admission).
	Admit(pt *Port, p *packet.Packet) bool
	// OnDequeue runs when a packet is scheduled for transmission, before
	// its serialization time is computed; devices use it to stamp INT,
	// mark ECN, and release shared-buffer memory.
	OnDequeue(pt *Port, p *packet.Packet)
}

// Port is one egress port: queue + serializer + wire.
type Port struct {
	Eng   *sim.Engine
	Rate  units.BitRate // line rate
	Delay sim.Duration  // propagation delay to Peer
	Peer  Receiver
	Q     queue.Queue

	// Dev admits and dequeues on the owner's behalf; nil admits
	// everything and does nothing at dequeue (a host NIC).
	Dev Device
	// Pool, when set, recycles the packets dropped at admission or
	// serialized onto a downed wire (the NIC/switch-side Put point of
	// the engine's packet free list), and those lost at delivery unless
	// the wire ends on another shard.
	Pool *packet.Pool
	// Out, when set, is the mailbox of the shard pair the wire crosses
	// (internal/psim): each transmission is posted there instead of
	// scheduled on Eng, and the far shard's engine delivers it (Arrive).
	// FarPool is that shard's packet free list, which takes back a
	// packet lost at delivery.
	Out     *psim.Mailbox
	FarPool *packet.Pool

	// The ledger: packets and payload bytes, each word updated at exactly
	// one point of a packet's life through this port and by one writer.
	// Send and kick write theirs on Eng; deliver writes lostRx, plLostRx
	// and plDelivered on the engine the wire ends on, which is Eng unless
	// the wire crosses shards (the psim barrier orders both against the
	// reads). The payload sums form an exact conservation identity (the
	// fuzzlab invariant): everything accepted is eventually transmitted
	// or still queued; everything transmitted is delivered, lost on a
	// downed wire, or still on the wire.
	txBytes     uint64 // cumulative wire bytes transmitted
	txPkts      uint64
	drops       uint64
	lostTx      uint64 // packets serialized onto a downed wire
	lostRx      uint64 // packets lost at the delivery instant
	plAccepted  uint64 // admitted into the queue
	plDropped   uint64 // rejected at admission
	plTx        uint64 // dequeued for transmission
	plLostTx    uint64 // serialized onto a downed wire
	plDelivered uint64 // handed to Peer
	plLostRx    uint64 // lost at the delivery instant

	// Virtual fluid load (hybrid co-simulation, internal/hybrid). The
	// coupler folds each fluid component's analytic backlog into the
	// port as vBacklog — extra queue bytes visible to INT/ECN through
	// VirtualBacklog — and as vShare, the fraction of the serializer the
	// fluid traffic occupies; packet serialization slows by 1/(1−vShare)
	// so packets experience the residual capacity, exactly as they would
	// behind real background packets. Both are zero outside hybrid runs,
	// keeping the packet-only drain loop branch-identical.
	vBacklog int64
	vShare   float64

	busy   bool
	paused bool
	down   bool

	txDone sim.Timer  // ends the current serialization
	fifo   queue.FIFO // Q unless the owner installs another discipline
	// wire holds the packets serialized onto the wire and not yet
	// delivered, oldest first, linked through Packet.Next like any queue;
	// on a wire that crosses shards it holds those that have arrived.
	wire queue.FIFO
}

// NewPort builds a port whose queue is an empty FIFO, which links the
// packets it holds through their Next fields.
func NewPort(eng *sim.Engine, rate units.BitRate, delay sim.Duration, peer Receiver) *Port {
	pt := new(Port)
	pt.init(eng, rate, delay, peer)
	return pt
}

func (pt *Port) init(eng *sim.Engine, rate units.BitRate, delay sim.Duration, peer Receiver) {
	pt.Eng, pt.Rate, pt.Delay, pt.Peer = eng, rate, delay, peer
	pt.Q = &pt.fifo
	pt.txDone.Bind(eng, txDone, pt)
}

// Block carves ports from arrays: a fabric's thousands of ports cost one
// allocation per array, not one each. The zero value is empty; a nil
// *Block builds each port alone, as NewPort does.
type Block struct{ free []Port }

// blockLen is how many ports an exhausted block grows by.
const blockLen = 64

// Use hands the block room, an array of zeroed ports, to carve from
// next; past its end the block grows on its own.
func (b *Block) Use(room []Port) { b.free = room }

// Spare returns how many ports the block holds room for and has not
// handed out.
func (b *Block) Spare() int { return len(b.free) }

// NewPort is NewPort for a port carved from the block.
func (b *Block) NewPort(eng *sim.Engine, rate units.BitRate, delay sim.Duration, peer Receiver) *Port {
	if b == nil {
		return NewPort(eng, rate, delay, peer)
	}
	if len(b.free) == 0 {
		b.free = make([]Port, blockLen)
	}
	pt := &b.free[0]
	b.free = b.free[1:]
	pt.init(eng, rate, delay, peer)
	return pt
}

// TxBytes returns the cumulative bytes transmitted (the INT txBytes field).
func (pt *Port) TxBytes() uint64 { return pt.txBytes }

// TxPackets returns the cumulative packets transmitted.
func (pt *Port) TxPackets() uint64 { return pt.txPkts }

// Drops returns the number of packets dropped at admission.
func (pt *Port) Drops() uint64 { return pt.drops }

// QueueBytes returns the bytes currently queued.
func (pt *Port) QueueBytes() int64 { return pt.Q.Bytes() }

// PayloadAccepted returns the cumulative payload bytes admitted into the
// queue (for a host NIC: everything the endpoint emitted).
func (pt *Port) PayloadAccepted() uint64 { return pt.plAccepted }

// PayloadDropped returns the cumulative payload bytes rejected at
// admission (shared-buffer drops).
func (pt *Port) PayloadDropped() uint64 { return pt.plDropped }

// PayloadLost returns the cumulative payload bytes discarded on the
// downed wire, at transmit time or at the delivery instant.
func (pt *Port) PayloadLost() uint64 { return pt.plLostTx + pt.plLostRx }

// PayloadQueued returns the payload bytes currently sitting in the
// queue (accepted but not yet dequeued for transmission).
func (pt *Port) PayloadQueued() uint64 { return pt.plAccepted - pt.plTx }

// PayloadOnWire returns the payload bytes transmitted but not yet
// delivered or lost — in flight on the wire (or parked in a
// cross-partition mailbox) at read time.
func (pt *Port) PayloadOnWire() uint64 {
	return pt.plTx - pt.plLostTx - pt.plDelivered - pt.plLostRx
}

// SetVirtualLoad installs the fluid load the hybrid coupler computed
// for this port at the last exchange instant: backlog bytes of analytic
// queue and the serializer capacity share in [0,1) the fluid traffic
// occupies until the next exchange. Zero/zero restores pure packet
// behavior.
func (pt *Port) SetVirtualLoad(backlog int64, share float64) {
	pt.vBacklog = backlog
	pt.vShare = share
}

// VirtualBacklog returns the fluid backlog bytes currently folded into
// this port (zero outside hybrid runs). Devices add it to QueueBytes
// when stamping INT qlen and deciding ECN marks, so congestion signals
// reflect the load of both fidelities.
func (pt *Port) VirtualBacklog() int64 { return pt.vBacklog }

// Send enqueues p for transmission, subject to admission control, and
// starts the serializer if idle.
func (pt *Port) Send(p *packet.Packet) {
	if pt.Dev != nil && !pt.Dev.Admit(pt, p) {
		pt.drops++
		pt.plDropped += uint64(p.PayloadLen)
		pt.Pool.Put(p)
		return
	}
	pt.plAccepted += uint64(p.PayloadLen)
	pt.Q.Push(p)
	pt.kick()
}

// Pause stops the serializer after the in-flight packet completes; used
// by the circuit switch model during reconfiguration nights.
func (pt *Port) Pause() { pt.paused = true }

// Resume restarts a paused serializer.
func (pt *Port) Resume() {
	if !pt.paused {
		return
	}
	pt.paused = false
	pt.kick()
}

// SetDown cuts (or restores) the wire — the data-plane half of a link
// failure (see internal/route). While down the serializer keeps
// draining, so device-side buffer accounting at dequeue stays exact,
// but everything serialized onto the dead wire is discarded into the
// pool at transmit time, and packets already in flight when the cut
// lands are lost at their delivery instant. Restoring the wire only
// resumes delivery — the control plane decides when routes may use the
// link again.
func (pt *Port) SetDown(down bool) { pt.down = down }

// IsDown reports whether the wire is currently cut.
func (pt *Port) IsDown() bool { return pt.down }

// Lost returns the number of packets discarded on the downed wire, at
// transmit time or at the delivery instant.
func (pt *Port) Lost() uint64 { return pt.lostTx + pt.lostRx }

func (pt *Port) kick() {
	if pt.busy || pt.paused {
		return
	}
	p := pt.Q.Pop()
	if p == nil {
		return
	}
	if pt.Dev != nil {
		pt.Dev.OnDequeue(pt, p)
	}
	wire := p.WireLen() // after OnDequeue: includes any freshly stamped INT hop
	pt.txBytes += uint64(wire)
	pt.txPkts++
	pt.plTx += uint64(p.PayloadLen)
	tx := pt.Rate.TxTime(wire)
	if pt.vShare > 0 {
		// Fluid traffic holds vShare of the serializer: packets see the
		// residual rate Rate·(1−vShare), i.e. serialization stretched by
		// 1/(1−vShare). Integer nanoseconds keep this deterministic.
		tx = sim.Duration(float64(tx) / (1 - pt.vShare))
	}
	pt.busy = true
	now := pt.Eng.Now()
	pt.txDone.Arm(now.Add(tx))
	if pt.down {
		// Serialized into a cut cable: lost immediately, whatever the
		// wire's state by the time a delivery would have fired.
		pt.lostTx++
		pt.plLostTx += uint64(p.PayloadLen)
		pt.Pool.Put(p)
		return
	}
	at := now.Add(tx + pt.Delay)
	if pt.Out != nil {
		// The key a local delivery would get, drawn here, where the
		// serial run would have scheduled it.
		pt.Out.Post(pt.Eng.ChildKey(at), pt, p)
		return
	}
	pt.wire.Push(p)
	pt.Eng.AtCall(at, deliver, pt)
}

// Arrive is the far half of a transmission onto a wire that crosses
// shards (psim.Arriver): at the barrier after kick posted it, the packet
// joins the wire list and its delivery is scheduled on the far shard's
// engine under the key kick drew.
func (pt *Port) Arrive(eng *sim.Engine, k sim.Key, arg any) {
	pt.wire.Push(arg.(*packet.Packet))
	eng.InjectKey(k, deliver, pt)
}

// txDone is every port's serializer callback: the wire is free.
func txDone(arg any) {
	pt := arg.(*Port)
	pt.busy = false
	pt.kick()
}

// deliver hands the port's oldest packet on the wire to the peer; it is
// the callback of every delivery every port schedules, on the engine the
// wire ends on. Packets already in flight when a cut lands are lost
// here, at what would have been their delivery instant, into that
// engine's pool (packets transmitted while the wire was down never join
// the wire list or get a delivery — see kick).
func deliver(arg any) {
	pt := arg.(*Port)
	p := pt.wire.Pop()
	if pt.down {
		pt.lostRx++
		pt.plLostRx += uint64(p.PayloadLen)
		if pt.Out != nil {
			pt.FarPool.Put(p)
		} else {
			pt.Pool.Put(p)
		}
		return
	}
	pt.plDelivered += uint64(p.PayloadLen)
	pt.Peer.Receive(p)
}
