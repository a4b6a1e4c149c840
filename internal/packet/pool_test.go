package packet

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/telemetry"
)

// dirty writes into every part of a packet a later owner could observe.
func dirty(p *Packet, i int) {
	p.ID, p.Kind, p.Flow, p.Seq, p.CE = uint64(i+1), Ack, FlowID(i+1), int64(i), true
	p.Hops = append(p.Hops, telemetry.HopRecord{QLen: int64(i + 1)}, telemetry.HopRecord{TxBytes: 7})
}

// checkFresh fails unless p is indistinguishable from a new packet.
func checkFresh(t *testing.T, p *Packet) {
	t.Helper()
	if len(p.Hops) != 0 || cap(p.Hops) != telemetry.PathHopCap {
		t.Fatalf("Hops len %d cap %d, want 0 and %d", len(p.Hops), cap(p.Hops), telemetry.PathHopCap)
	}
	hops := p.Hops
	p.Hops = nil
	if !reflect.DeepEqual(*p, Packet{}) {
		t.Fatalf("packet not zero: %+v", *p)
	}
	p.Hops = hops
}

// getDistinct takes n packets, failing if any pointer comes out twice.
func getDistinct(t *testing.T, pl *Pool, n int, seen map[*Packet]bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := pl.Get()
		if seen[p] {
			t.Fatalf("packet %p handed out twice", p)
		}
		seen[p] = true
		checkFresh(t, p)
		dirty(p, i)
	}
}

// TestDrainReclaimsInFlightPackets: Drain hands on every packet the pool
// made — returned or not — and the adopting pool serves them zeroed,
// each once, without allocating.
func TestDrainReclaimsInFlightPackets(t *testing.T) {
	const n = 3*slabPackets - 5
	a := NewPool()
	var held []*Packet
	for i := 0; i < n; i++ {
		p := a.Get()
		dirty(p, i)
		held = append(held, p)
	}
	for _, p := range held[:10] { // a few come back; the rest stay in flight
		a.Put(p)
	}
	if gets, news, puts := a.Stats(); gets != n || news != n || puts != 10 {
		t.Fatalf("first run stats = %d/%d/%d, want %d/%d/10", gets, news, puts, n, n)
	}
	slabs := a.Drain()
	if len(slabs) != 3 {
		t.Fatalf("drained %d slabs, want 3", len(slabs))
	}
	if again := a.Drain(); again != nil {
		t.Fatalf("second Drain returned %d slabs", len(again))
	}

	b := NewPool()
	b.Adopt(slabs)
	seen := map[*Packet]bool{}
	getDistinct(t, b, 3*slabPackets, seen)
	if gets, news, _ := b.Stats(); gets != 3*slabPackets || news != 0 {
		t.Fatalf("adopted run: gets %d news %d, want %d and 0", gets, news, 3*slabPackets)
	}
	for _, p := range held {
		if !seen[p] {
			t.Fatalf("in-flight packet %p was not reclaimed", p)
		}
	}
	// Past the adopted slabs the pool allocates its own, and says so.
	getDistinct(t, b, 1, seen)
	if _, news, _ := b.Stats(); news != 1 {
		t.Fatalf("news = %d after outrunning the adopted slabs, want 1", news)
	}
	if b.Live() != 3*slabPackets+1 {
		t.Fatalf("Live = %d, want %d", b.Live(), 3*slabPackets+1)
	}
}

// TestCrossPoolPutReclaimedOnce is the partitioned fabric in miniature:
// packets Get from one pool and Put into another sit in the wrong free
// list at Drain, and must still be handed on exactly once.
func TestCrossPoolPutReclaimedOnce(t *testing.T) {
	a, b := NewPool(), NewPool()
	var fromA, fromB []*Packet
	for i := 0; i < slabPackets+9; i++ {
		fromA = append(fromA, a.Get())
	}
	for i := 0; i < 50; i++ {
		fromB = append(fromB, b.Get())
	}
	for _, p := range fromA {
		b.Put(p)
	}
	for _, p := range fromB {
		a.Put(p)
	}
	for i := 0; i < 20; i++ { // back in flight, out of the wrong free lists
		dirty(a.Get(), i)
		dirty(b.Get(), i)
	}
	sa, sb := a.Drain(), b.Drain()
	total := (len(sa) + len(sb)) * slabPackets

	c := NewPool()
	c.Adopt(sa)
	c.Adopt(sb)
	getDistinct(t, c, total, map[*Packet]bool{})
	if _, news, _ := c.Stats(); news != 0 {
		t.Fatalf("news = %d over the adopted slabs, want 0", news)
	}
}

// TestPutOfForeignPacket: a packet the pool did not make — here one with
// no hop storage at all, as the benchmark ladder and tests build them —
// recycles through the free list and is not part of what Drain hands on.
func TestPutOfForeignPacket(t *testing.T) {
	pl := NewPool()
	foreign := &Packet{ID: 9, PayloadLen: 1000}
	pl.Put(foreign)
	if got := pl.Get(); got != foreign || got.ID != 0 || got.Hops != nil {
		t.Fatalf("Get after foreign Put = %p %+v, want the zeroed %p", got, *got, foreign)
	}
	if gets, news, puts := pl.Stats(); gets != 1 || news != 0 || puts != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/0/1", gets, news, puts)
	}
	if slabs := pl.Drain(); len(slabs) != 0 {
		t.Fatalf("foreign packet produced %d slabs", len(slabs))
	}
}

// TestPoolEdges: the nil pool and the kill-switch keep allocating plain
// packets and carry nothing from run to run.
func TestPoolEdges(t *testing.T) {
	var nilPool *Pool
	checkFresh(t, nilPool.Get())
	nilPool.Put(&Packet{})
	nilPool.Adopt(make([]Slab, 1))
	if nilPool.Drain() != nil || nilPool.Live() != 0 {
		t.Fatal("nil pool holds state")
	}

	warm := NewPool()
	warm.Get()
	slabs := warm.Drain()

	SetPooling(false)
	defer SetPooling(true)
	pl := NewPool()
	pl.Adopt(slabs)
	p := pl.Get()
	checkFresh(t, p)
	pl.Put(p)
	if gets, news, puts := pl.Stats(); gets+news+puts != 0 || pl.Live() != 0 {
		t.Fatalf("disabled pool counted %d/%d/%d", gets, news, puts)
	}
	if got := pl.Drain(); len(got) != 0 {
		t.Fatalf("disabled pool adopted %d slabs", len(got))
	}
}

// TestSteadyStateAllocatesNothing: Get/Put round trips, and carving
// packets out of adopted slabs, are allocation-free.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	pl := NewPool()
	pl.Put(pl.Get())
	if a := testing.AllocsPerRun(100, func() { pl.Put(pl.Get()) }); a != 0 {
		t.Fatalf("Get/Put round trip allocates %v", a)
	}
	warm := NewPool()
	for i := 0; i < 2*slabPackets; i++ {
		warm.Get()
	}
	slabs := warm.Drain()
	next := NewPool()
	next.Adopt(slabs)
	if a := testing.AllocsPerRun(1, func() {
		for i := 0; i < slabPackets-1; i++ {
			next.Get()
		}
	}); a != 0 {
		t.Fatalf("carving adopted slabs allocates %v", a)
	}
}

// TestSlabHalvesAreExactAllocationSizes pins the arithmetic behind
// slabPackets: both halves of a slab must be sizes the Go allocator hands
// out without rounding up, or every slab wastes the difference and live
// heap rises. If Packet or HopRecord changes size, pick slabPackets anew.
func TestSlabHalvesAreExactAllocationSizes(t *testing.T) {
	var s Slab
	if got := unsafe.Sizeof(*s.pkts); got != 18432 { // a malloc size class
		t.Errorf("packet half of a slab is %d bytes, want 18432", got)
	}
	if got := unsafe.Sizeof(*s.hops); got%8192 != 0 { // large object: whole pages
		t.Errorf("hop half of a slab is %d bytes, not a whole number of pages", got)
	}
}
