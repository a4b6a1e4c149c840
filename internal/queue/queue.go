// Package queue provides the egress-queue disciplines used by switch
// ports: a plain FIFO, an 8-level strict-priority queue (HOMA), and a
// class queue with an externally selected active class (the
// per-destination virtual output queues of the RDCN case study). All
// three are FIFOs underneath, and a FIFO links its packets through
// packet.Packet.Next, so a queue costs a few words however deep it gets.
package queue

import "repro/internal/packet"

// Queue is the interface a port drains. Push never fails; admission
// control happens before Push (see internal/buffer).
type Queue interface {
	Push(p *packet.Packet)
	Pop() *packet.Packet
	Bytes() int64
}

// FIFO is a first-in-first-out packet queue linked through the packets'
// own Next fields, so it holds no storage of its own whatever its depth:
// a packet waits in at most one queue at a time. Push links at the tail
// and Pop unlinks the head, clearing its Next. The zero value is an
// empty queue ready for use.
type FIFO struct {
	head, tail *packet.Packet
	// A link.Port holds two FIFOs inline. At 24 bytes they moved the
	// port's later fields across cache lines, and websearch64 ran about
	// 16% slower; the pad keeps the 32-byte FIFO the port was laid out
	// around.
	_     int64
	bytes int64
}

// NewFIFO returns an empty FIFO.
func NewFIFO() *FIFO { return &FIFO{} }

// Push appends p, which must wait in no other queue.
func (q *FIFO) Push(p *packet.Packet) {
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.Next = p
	}
	q.tail = p
	q.bytes += p.WireLen()
}

// Pop removes and returns the oldest packet, unlinked, or nil if empty.
func (q *FIFO) Pop() *packet.Packet {
	p := q.head
	if p == nil {
		return nil
	}
	q.head, p.Next = p.Next, nil
	if q.head == nil {
		q.tail = nil
	}
	q.bytes -= p.WireLen()
	return p
}

// Bytes returns the total wire bytes queued.
func (q *FIFO) Bytes() int64 { return q.bytes }

// Prio is a strict-priority queue with packet.MaxPriority+1 levels;
// level 0 drains first. Packets with out-of-range priorities are clamped.
type Prio struct {
	levels [packet.MaxPriority + 1]FIFO
	bytes  int64
}

// NewPrio returns an empty strict-priority queue.
func NewPrio() *Prio { return &Prio{} }

// Push enqueues p at its priority level.
func (q *Prio) Push(p *packet.Packet) {
	lvl := p.Priority
	if lvl > packet.MaxPriority {
		lvl = packet.MaxPriority
	}
	q.levels[lvl].Push(p)
	q.bytes += p.WireLen()
}

// Pop removes the oldest packet of the highest non-empty priority.
func (q *Prio) Pop() *packet.Packet {
	for i := range q.levels {
		if p := q.levels[i].Pop(); p != nil {
			q.bytes -= p.WireLen()
			return p
		}
	}
	return nil
}

// Bytes returns the total wire bytes queued across all levels.
func (q *Prio) Bytes() int64 { return q.bytes }

// Class is a queue partitioned into classes (e.g. per-destination VOQs)
// of which exactly one — the active class — is drainable at a time.
// Pushes go to the class chosen by the classifier; Pop serves only the
// active class, modelling a circuit switch that connects one output.
type Class struct {
	Classify func(p *packet.Packet) int

	classes map[int]*FIFO
	active  int
	bytes   int64
}

// NewClass returns an empty class queue. classify maps a packet to its
// class (for VOQs: the destination ToR).
func NewClass(classify func(p *packet.Packet) int) *Class {
	return &Class{Classify: classify, classes: map[int]*FIFO{}, active: -1}
}

// SetActive selects which class Pop serves; -1 disables draining.
func (q *Class) SetActive(class int) { q.active = class }

// Push enqueues p in its class.
func (q *Class) Push(p *packet.Packet) {
	c := q.Classify(p)
	f := q.classes[c]
	if f == nil {
		f = NewFIFO()
		q.classes[c] = f
	}
	f.Push(p)
	q.bytes += p.WireLen()
}

// Pop removes the oldest packet of the active class, or returns nil when
// the active class is empty or draining is disabled.
func (q *Class) Pop() *packet.Packet {
	f := q.classes[q.active]
	if f == nil {
		return nil
	}
	p := f.Pop()
	if p != nil {
		q.bytes -= p.WireLen()
	}
	return p
}

// Bytes returns the wire bytes queued across all classes.
func (q *Class) Bytes() int64 { return q.bytes }

// ClassBytes returns the wire bytes queued for one class.
func (q *Class) ClassBytes(class int) int64 {
	if f := q.classes[class]; f != nil {
		return f.Bytes()
	}
	return 0
}
