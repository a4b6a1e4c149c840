// Package pooluse is the analysistest fixture for the pooluse
// analyzer: use-after-Put and double-Put of pooled packets, stale
// sim.Event handles after Cancel, kills by reassignment, the
// block-local boundary of the analysis, and queue links written outside
// the queues.
package pooluse

import (
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// stampThroughPool is the sanctioned stamp, and the ACK's takeover of a
// data packet's stack is a move, not an append.
func stampThroughPool(pl *packet.Pool, h telemetry.HopRecord) {
	data, ack := pl.Get(), pl.Get()
	pl.Stamp(data, h)
	ack.TakeHops(data)
	pl.Put(data)
	pl.Put(ack)
}

// linkBypassesQueue threads packets by hand: only queue.FIFO links a
// packet, and only its Pop unlinks one.
func linkBypassesQueue(pl *packet.Pool) {
	p, q := pl.Get(), pl.Get()
	p.Next = q                  // want `write to p.Next outside internal/queue`
	q.Next, p.Src = nil, 1      // want `write to q.Next outside internal/queue`
	_ = &packet.Packet{Next: p} // want `write to Packet.Next outside internal/queue`
}

// readLinks is clean: reading a link, or writing another type's Next,
// leaves every queue as it was.
func readLinks(p *packet.Packet) int {
	var node struct{ Next *packet.Packet }
	node.Next = p.Next
	n := 0
	for ; p != nil; p = p.Next {
		n++
	}
	return n
}

// useAfterPut touches a recycled packet.
func useAfterPut(pl *packet.Pool) int64 {
	p := pl.Get()
	pl.Put(p)
	return p.Seq() // want `use of packet p after it was released`
}

// doublePut releases the same packet twice.
func doublePut(pl *packet.Pool) {
	p := pl.Get()
	pl.Put(p)
	pl.Put(p) // want `double release of packet p`
}

// reassignmentKills is clean: p holds a fresh packet after Get.
func reassignmentKills(pl *packet.Pool) int64 {
	p := pl.Get()
	pl.Put(p)
	p = pl.Get()
	return p.Seq()
}

// conditionalPut is clean for the analyzer: the release does not
// execute unconditionally, so the fall-through use is not flagged
// (block-local analysis; the runtime determinism suite covers this).
func conditionalPut(pl *packet.Pool, drop bool) int64 {
	p := pl.Get()
	if drop {
		pl.Put(p)
		return 0
	}
	return p.Seq()
}

// nestedUse is flagged: the release is unconditional, the later use
// merely conditional.
func nestedUse(pl *packet.Pool, log bool) int64 {
	p := pl.Get()
	pl.Put(p)
	if log {
		return p.Seq() // want `use of packet p after it was released`
	}
	return 0
}

// copyBeforePut is the sanctioned pattern: take what you need first.
func copyBeforePut(pl *packet.Pool) int64 {
	p := pl.Get()
	seq := p.Seq()
	pl.Put(p)
	return seq
}

// staleHandle uses an event handle after cancelling it: the handle
// answers for a recycled node from then on.
func staleHandle(eng *sim.Engine) bool {
	ev := eng.At(5, func() {})
	eng.Cancel(ev)
	return ev.Scheduled() // want `use of event handle ev after it was released`
}

// doubleCancel is flagged as a double release.
func doubleCancel(eng *sim.Engine) {
	ev := eng.At(5, func() {})
	eng.Cancel(ev)
	eng.Cancel(ev) // want `double release of event handle ev`
}

// rearmedHandle is clean: the handle is reassigned before reuse.
func rearmedHandle(eng *sim.Engine) bool {
	ev := eng.At(5, func() {})
	eng.Cancel(ev)
	ev = eng.At(10, func() {})
	return ev.Scheduled()
}

// justified carries a suppression with a reason: recorded, not failed.
func justified(pl *packet.Pool) int64 {
	p := pl.Get()
	pl.Put(p)
	//powervet:pool fixture justification: reading a field of a just-recycled packet for a diagnostic
	return p.Seq() // suppressed `use of packet p after it was released`
}
