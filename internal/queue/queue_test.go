package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func mkPkt(flow packet.FlowID, payload int32, prio uint8) *packet.Packet {
	return &packet.Packet{Flow: flow, Kind: packet.Data, PayloadLen: payload, Priority: prio}
}

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO()
	for i := packet.FlowID(0); i < 100; i++ {
		q.Push(mkPkt(i, 100, 0))
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := packet.FlowID(0); i < 100; i++ {
		if p := q.Peek(); p.Flow != i {
			t.Fatalf("Peek = %d, want %d", p.Flow, i)
		}
		if p := q.Pop(); p.Flow != i {
			t.Fatalf("Pop = %d, want %d", p.Flow, i)
		}
	}
	if q.Pop() != nil || q.Peek() != nil {
		t.Fatal("empty queue returned a packet")
	}
}

func TestFIFOInterleavedOrder(t *testing.T) {
	q := NewFIFO()
	id := packet.FlowID(0)
	// Interleave pushes and pops: packets join the tail while others
	// leave the head, and the queue never runs empty.
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Push(mkPkt(id, 10, 0))
			id++
		}
		for i := 0; i < 5; i++ {
			q.Pop()
		}
	}
	want := packet.FlowID(50 * 5)
	for p := q.Pop(); p != nil; p = q.Pop() {
		if p.Flow != want {
			t.Fatalf("interleaved order broke: got %d, want %d", p.Flow, want)
		}
		want++
	}
	if want != id {
		t.Fatalf("drained to %d, want %d", want, id)
	}
}

// TestFIFOHoldsNoStorage pins that a FIFO links its packets rather than
// holding them: a cold queue that takes 4,096 packets and drains them
// allocates nothing.
func TestFIFOHoldsNoStorage(t *testing.T) {
	pkts := make([]packet.Packet, 4096)
	if a := testing.AllocsPerRun(10, func() {
		var q FIFO
		for i := range pkts {
			q.Push(&pkts[i])
		}
		for q.Pop() != nil {
		}
	}); a != 0 {
		t.Fatalf("a FIFO of 4,096 packets allocates %v times", a)
	}
}

// TestFIFOPopUnlinks pins the one-queue invariant's other half: Pop
// hands a packet back unlinked, so it can wait in another queue while
// the first keeps its order, and Peek leaves the link alone.
func TestFIFOPopUnlinks(t *testing.T) {
	var a, b FIFO
	for i := packet.FlowID(0); i < 4; i++ {
		a.Push(mkPkt(i, 10, 0))
	}
	if p := a.Peek(); p.Flow != 0 || p.Next == nil || p.Next.Flow != 1 {
		t.Fatalf("Peek unlinked the head or returned the wrong packet: %v", p)
	}
	p := a.Pop()
	if p.Next != nil {
		t.Fatalf("popped packet %d still links to %v", p.Flow, p.Next)
	}
	b.Push(p)
	b.Push(a.Pop())
	for want := packet.FlowID(2); want < 4; want++ {
		if p := a.Pop(); p == nil || p.Flow != want {
			t.Fatalf("first queue after re-queueing: got %v, want %d", p, want)
		}
	}
	for want := packet.FlowID(0); want < 2; want++ {
		if p := b.Pop(); p == nil || p.Flow != want || p.Next != nil {
			t.Fatalf("second queue: got %v, want %d unlinked", p, want)
		}
	}
	if a.Len() != 0 || b.Len() != 0 || a.Peek() != nil || b.Peek() != nil {
		t.Fatal("queues not empty after draining")
	}
}

func TestFIFOBytes(t *testing.T) {
	q := NewFIFO()
	p1, p2 := mkPkt(1, 1000, 0), mkPkt(2, 500, 0)
	q.Push(p1)
	q.Push(p2)
	want := p1.WireLen() + p2.WireLen()
	if q.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", q.Bytes(), want)
	}
	q.Pop()
	if q.Bytes() != p2.WireLen() {
		t.Fatalf("Bytes after pop = %d, want %d", q.Bytes(), p2.WireLen())
	}
}

func TestPrioStrictOrder(t *testing.T) {
	q := new(Prio)
	q.Push(mkPkt(1, 10, 5))
	q.Push(mkPkt(2, 10, 0))
	q.Push(mkPkt(3, 10, 5))
	q.Push(mkPkt(4, 10, 7))
	q.Push(mkPkt(5, 10, 0))
	wantOrder := []packet.FlowID{2, 5, 1, 3, 4}
	for _, want := range wantOrder {
		if p := q.Pop(); p == nil || p.Flow != want {
			t.Fatalf("Pop = %v, want %d", p, want)
		}
	}
}

func TestPrioClampsPriority(t *testing.T) {
	q := new(Prio)
	q.Push(mkPkt(1, 10, 200)) // clamped to MaxPriority
	q.Push(mkPkt(2, 10, packet.MaxPriority))
	if p := q.Pop(); p.Flow != 1 {
		t.Fatalf("clamped packet not at MaxPriority level; got %d", p.Flow)
	}
	if q.LevelBytes(packet.MaxPriority) == 0 {
		t.Fatal("LevelBytes empty after clamped push")
	}
}

func TestClassQueueActiveSwitching(t *testing.T) {
	q := NewClass(func(p *packet.Packet) int { return int(p.Dst) })
	push := func(id packet.FlowID, dst int32) {
		p := mkPkt(id, 10, 0)
		p.Dst = packet.NodeID(dst)
		q.Push(p)
	}
	push(1, 7)
	push(2, 9)
	push(3, 7)
	if q.Pop() != nil {
		t.Fatal("inactive class queue popped a packet")
	}
	q.SetActive(7)
	if p := q.Pop(); p.Flow != 1 {
		t.Fatalf("active class 7: got %v", p)
	}
	if got := q.ClassBytes(9); got == 0 {
		t.Fatal("class 9 should still hold bytes")
	}
	q.SetActive(9)
	if p := q.Pop(); p.Flow != 2 {
		t.Fatalf("active class 9: got %v", p)
	}
	q.SetActive(-1)
	if q.Pop() != nil {
		t.Fatal("disabled class queue popped a packet")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

// Property: for any op sequence, Bytes() equals the sum of WireLen of the
// packets currently inside, and Len() the count — conservation under
// push/pop for all three disciplines.
func TestConservationProperty(t *testing.T) {
	prop := func(seed int64, which uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q interface {
			Queue
			Len() int
		}
		switch which % 3 {
		case 0:
			q = NewFIFO()
		case 1:
			q = new(Prio)
		default:
			cq := NewClass(func(p *packet.Packet) int { return int(p.Flow % 4) })
			cq.SetActive(rng.Intn(4))
			q = cq
		}
		inside := int64(0)
		count := 0
		for i := 0; i < 200; i++ {
			if rng.Intn(3) > 0 {
				p := mkPkt(packet.FlowID(i), int32(rng.Intn(1500)), uint8(rng.Intn(8)))
				q.Push(p)
				inside += p.WireLen()
				count++
			} else if p := q.Pop(); p != nil {
				inside -= p.WireLen()
				count--
			}
		}
		return q.Bytes() == inside && q.Len() == count
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFIFOPushPop(b *testing.B) {
	q := NewFIFO()
	p := mkPkt(1, 1000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(p)
		q.Pop()
	}
}
