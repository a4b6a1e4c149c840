package queue

import "repro/internal/packet"

// LevelBytes returns the bytes queued at one priority level.
func (q *Prio) LevelBytes(lvl int) int64 { return q.levels[lvl].Bytes() }

// Peek returns the oldest packet without removing it, or nil if empty.
func (q *FIFO) Peek() *packet.Packet { return q.head }

// Len counts the queued packets by walking their links.
func (q *FIFO) Len() int {
	n := 0
	for p := q.head; p != nil; p = p.Next {
		n++
	}
	return n
}

// Len counts the packets queued across all levels.
func (q *Prio) Len() int {
	n := 0
	for i := range q.levels {
		n += q.levels[i].Len()
	}
	return n
}

// Len counts the packets queued across all classes.
func (q *Class) Len() int {
	n := 0
	for _, f := range q.classes {
		n += f.Len()
	}
	return n
}
