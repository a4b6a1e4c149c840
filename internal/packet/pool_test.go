package packet

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// literalStack gives p a stack built the way a test builds one, outside
// any pool: recs's storage, at recs's capacity.
func literalStack(p *Packet, recs []telemetry.HopRecord) {
	p.hops, p.nhops, p.hopCap = &recs[0], uint8(len(recs)), uint8(cap(recs))
}

// dirty writes into every part of a packet a later owner could observe,
// stamping two records through pl.
func dirty(pl *Pool, p *Packet, i int) {
	p.Kind, p.Flow, p.CE, p.EchoECN, p.MsgID = Ack, FlowID(i+1), true, true, uint64(i+1)
	p.SetAckSeq(int64(i + 1))
	p.SetEchoSent(sim.Time(i + 1))
	p.SetGrantOffset(int64(i + 1))
	pl.Stamp(p, telemetry.HopRecord{QLen: int64(i + 1)})
	pl.Stamp(p, telemetry.HopRecord{TxBytes: 7})
}

// checkFresh fails unless p is indistinguishable from a new packet,
// which holds no hop storage.
func checkFresh(t *testing.T, p *Packet) {
	t.Helper()
	if p.Hops() != nil {
		t.Fatalf("Hops len %d cap %d, want nil", len(p.Hops()), cap(p.Hops()))
	}
	if !reflect.DeepEqual(*p, Packet{}) {
		t.Fatalf("packet not zero: %+v", *p)
	}
}

// blockOf identifies the first block behind a packet stamped at most
// firstHops times.
func blockOf(t *testing.T, p *Packet) *telemetry.HopRecord { return blockOfCap(t, p, firstHops) }

// tripOf identifies the round-trip block behind a packet stamped more
// than firstHops times.
func tripOf(t *testing.T, p *Packet) *telemetry.HopRecord {
	return blockOfCap(t, p, telemetry.PathHopCap)
}

func blockOfCap(t *testing.T, p *Packet, want int) *telemetry.HopRecord {
	t.Helper()
	if int(p.hopCap) != want {
		t.Fatalf("hop storage has room for %d records, want a %d-record block", p.hopCap, want)
	}
	return p.hops
}

// getDistinct takes n packets and stamps each, failing if any packet or
// hop block comes out twice.
func getDistinct(t *testing.T, pl *Pool, n int, seen map[*Packet]bool, blocks map[*telemetry.HopRecord]bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := pl.Get()
		if seen[p] {
			t.Fatalf("packet %p handed out twice", p)
		}
		seen[p] = true
		checkFresh(t, p)
		dirty(pl, p, i)
		if len(p.Hops()) != 2 || p.Hops()[0].QLen != int64(i+1) || p.Hops()[1].TxBytes != 7 {
			t.Fatalf("stamped stack = %+v", p.Hops())
		}
		b := blockOf(t, p)
		if blocks[b] {
			t.Fatalf("hop block %p attached twice", b)
		}
		blocks[b] = true
	}
}

// TestStampAttachesOnceAndReusesLIFO: a packet acquires its first block
// at the first stamp and keeps it while it fills; returned blocks come
// back last in, first out, whichever packet asks.
func TestStampAttachesOnceAndReusesLIFO(t *testing.T) {
	pl := NewPool()
	a, b := pl.Get(), pl.Get()
	checkFresh(t, a)
	pl.Stamp(a, telemetry.HopRecord{QLen: 1})
	blkA := blockOf(t, a)
	for i := 2; i <= firstHops; i++ {
		pl.Stamp(a, telemetry.HopRecord{QLen: int64(i)})
	}
	if blockOf(t, a) != blkA || len(a.Hops()) != firstHops {
		t.Fatalf("stack moved or mis-sized while filling its block: len %d", len(a.Hops()))
	}
	pl.Stamp(b, telemetry.HopRecord{QLen: 100})
	blkB := blockOf(t, b)
	if gets, news, puts := pl.HopStats(); gets != 2 || news != 2 || puts != 0 {
		t.Fatalf("hop stats = %d/%d/%d, want 2/2/0", gets, news, puts)
	}
	pl.Put(a)
	pl.Put(b)
	c, d := pl.Get(), pl.Get()
	checkFresh(t, c)
	checkFresh(t, d)
	pl.Stamp(d, telemetry.HopRecord{QLen: 5})
	pl.Stamp(c, telemetry.HopRecord{QLen: 6})
	if blockOf(t, d) != blkB || blockOf(t, c) != blkA {
		t.Fatal("returned blocks were not reused last in, first out")
	}
	if len(d.Hops()) != 1 || d.Hops()[0].QLen != 5 {
		t.Fatalf("reused block shows its last owner's records: %+v", d.Hops())
	}
	if gets, news, puts := pl.HopStats(); gets != 4 || news != 2 || puts != 2 {
		t.Fatalf("hop stats = %d/%d/%d, want 4/2/2", gets, news, puts)
	}
}

// TestHopRoomFollowsStamps: a stack holds a first block for its first
// four records, moves once — records and all — into a round-trip block
// at the fifth, handing the first block straight back, and stays there
// up to telemetry.PathHopCap records. Deeper, it grows onto the heap,
// and Put does not take the grown storage for a block.
func TestHopRoomFollowsStamps(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	for i := 1; i <= firstHops; i++ {
		pl.Stamp(p, telemetry.HopRecord{QLen: int64(i)})
	}
	first := blockOf(t, p)
	pl.Stamp(p, telemetry.HopRecord{QLen: firstHops + 1})
	trip := tripOf(t, p)
	for i, h := range p.Hops() {
		if h.QLen != int64(i+1) {
			t.Fatalf("record %d reads QLen %d after the move, want %d", i, h.QLen, i+1)
		}
	}
	if f, tr := pl.firsts, pl.trips; f.gets != 1 || f.puts != 1 || len(f.free) != 1 || tr.gets != 1 || tr.puts != 0 {
		t.Fatalf("after the move: first blocks %d taken %d returned %d free, round-trip %d taken %d returned",
			f.gets, f.puts, len(f.free), tr.gets, tr.puts)
	}
	q := pl.Get()
	pl.Stamp(q, telemetry.HopRecord{})
	if blockOf(t, q) != first {
		t.Fatal("the first block the move returned was not the next one attached")
	}

	for i := firstHops + 2; i <= telemetry.PathHopCap; i++ {
		pl.Stamp(p, telemetry.HopRecord{QLen: int64(i)})
	}
	if tripOf(t, p) != trip || len(p.Hops()) != telemetry.PathHopCap {
		t.Fatalf("stack moved again or mis-sized while filling its round-trip block: len %d", len(p.Hops()))
	}
	if gets, _, _ := pl.HopStats(); gets != 3 {
		t.Fatalf("%d blocks attached, want 3: two first stamps and one move", gets)
	}
	pl.Stamp(p, telemetry.HopRecord{})
	if len(p.Hops()) != telemetry.PathHopCap+1 || p.hopCap == telemetry.PathHopCap {
		t.Fatalf("overflowing stack has %d records in %d of room", len(p.Hops()), p.hopCap)
	}
	pl.Put(p)
	pl.Put(q)
	if gets, _, puts := pl.HopStats(); gets != 3 || puts != 2 || pl.trips.puts != 0 {
		t.Fatalf("Put recycled %d blocks (%d round-trip) of %d attached, want 2 and 0: outgrown storage is not a block",
			puts, pl.trips.puts, gets)
	}
}

// TestTakeoverReturnsOneBlock is transport's ACK build: the ACK takes the
// data packet's stack over, the data packet is left block-less, and
// putting both back returns exactly one block.
func TestTakeoverReturnsOneBlock(t *testing.T) {
	pl := NewPool()
	data, ack := pl.Get(), pl.Get()
	pl.Stamp(data, telemetry.HopRecord{QLen: 1})
	blk := blockOf(t, data)
	ack.TakeHops(data)
	if data.Hops() != nil || data.hopCap != 0 {
		t.Fatalf("data packet kept %d records in %d of room after the takeover", len(data.Hops()), data.hopCap)
	}
	pl.Put(data)
	pl.Stamp(ack, telemetry.HopRecord{QLen: 2}) // the return path keeps collecting
	if blockOf(t, ack) != blk || len(ack.Hops()) != 2 || ack.Hops()[0].QLen != 1 {
		t.Fatalf("ACK stack after takeover = %+v", ack.Hops())
	}
	if gets, _, puts := pl.HopStats(); gets != 1 || puts != 0 {
		t.Fatalf("hop stats after the data Put = %d attached, %d returned, want 1 and 0", gets, puts)
	}
	pl.Put(ack)
	if gets, news, puts := pl.HopStats(); gets != 1 || news != 1 || puts != 1 {
		t.Fatalf("hop stats = %d/%d/%d, want 1/1/1", gets, news, puts)
	}
}

// TestDrainReclaimsInFlightPackets: Drain hands on every packet and hop
// block the pool made — returned or not — and the adopting pool serves
// them, packets zeroed, each once, without allocating.
func TestDrainReclaimsInFlightPackets(t *testing.T) {
	const n = 3*slabPackets - 5
	a := NewPool()
	var held []*Packet
	heldBlocks := map[*telemetry.HopRecord]bool{}
	for i := 0; i < n; i++ {
		p := a.Get()
		if i%2 == 0 { // every other packet meets a switch
			dirty(a, p, i)
			heldBlocks[blockOf(t, p)] = true
		}
		held = append(held, p)
	}
	for _, p := range held[:10] { // a few come back; the rest stay in flight
		a.Put(p)
	}
	if gets, news, puts := a.Stats(); gets != n || news != n || puts != 10 {
		t.Fatalf("first run stats = %d/%d/%d, want %d/%d/10", gets, news, puts, n, n)
	}
	const stamped = (n + 1) / 2
	if gets, news, puts := a.HopStats(); gets != stamped || news != stamped || puts != 5 {
		t.Fatalf("first run hop stats = %d/%d/%d, want %d/%d/5", gets, news, puts, stamped, stamped)
	}
	slabs := a.Drain()
	if got := countSlabs(slabs); got != (slabCount{pkts: 3, firsts: 2, lists: 1}) {
		t.Fatalf("drained %+v, want 3 packet slabs, 2 first-block slabs and the free lists", got)
	}
	if again := a.Drain(); again != nil {
		t.Fatalf("second Drain returned %d slabs", len(again))
	}

	b := NewPool()
	b.Adopt(slabs)
	seen, blocks := map[*Packet]bool{}, map[*telemetry.HopRecord]bool{}
	getDistinct(t, b, 2*slabPackets, seen, blocks)
	for i := 0; i < slabPackets; i++ { // the third packet slab, unstamped
		p := b.Get()
		if seen[p] {
			t.Fatalf("packet %p handed out twice", p)
		}
		seen[p] = true
		checkFresh(t, p)
	}
	if gets, news, _ := b.Stats(); gets != 3*slabPackets || news != 0 {
		t.Fatalf("adopted run: gets %d news %d, want %d and 0", gets, news, 3*slabPackets)
	}
	if gets, news, _ := b.HopStats(); gets != 2*slabPackets || news != 0 {
		t.Fatalf("adopted run: %d blocks attached, %d new, want %d and 0", gets, news, 2*slabPackets)
	}
	for _, p := range held {
		if !seen[p] {
			t.Fatalf("in-flight packet %p was not reclaimed", p)
		}
	}
	for blk := range heldBlocks {
		if !blocks[blk] {
			t.Fatalf("in-flight hop block %p was not reclaimed", blk)
		}
	}
	// Past the adopted slabs the pool allocates its own, and says so.
	getDistinct(t, b, 1, seen, blocks)
	if _, news, _ := b.Stats(); news != 1 {
		t.Fatalf("news = %d after outrunning the adopted slabs, want 1", news)
	}
	if _, news, _ := b.HopStats(); news != 1 {
		t.Fatalf("hop news = %d after outrunning the adopted hop slabs, want 1", news)
	}
	if b.Live() != 3*slabPackets+1 {
		t.Fatalf("Live = %d, want %d", b.Live(), 3*slabPackets+1)
	}
}

// TestDrainHandsOnRoundTripBlocks: round-trip blocks are run memory like
// the rest — Drain hands on their slabs, in flight or returned, and the
// adopting pool moves stacks into them, each once, before it allocates.
func TestDrainHandsOnRoundTripBlocks(t *testing.T) {
	const n = slabPackets + 1
	deep := func(pl *Pool) *Packet {
		p := pl.Get()
		for i := 0; i <= firstHops; i++ {
			pl.Stamp(p, telemetry.HopRecord{QLen: int64(i)})
		}
		return p
	}
	a := NewPool()
	held := map[*telemetry.HopRecord]bool{}
	var ps []*Packet
	for i := 0; i < n; i++ {
		p := deep(a)
		held[tripOf(t, p)] = true
		ps = append(ps, p)
	}
	for _, p := range ps[:3] {
		a.Put(p)
	}
	// Every move hands its first block back, and the next packet takes it.
	if f, tr := a.firsts, a.trips; f.news != 1 || tr.news != n || tr.puts != 3 {
		t.Fatalf("carved %d first and %d round-trip blocks, %d returned; want 1, %d, 3", f.news, tr.news, tr.puts, n)
	}
	slabs := a.Drain()
	if got := countSlabs(slabs); got != (slabCount{pkts: 2, firsts: 1, trips: 2, lists: 1}) {
		t.Fatalf("drained %+v, want 2 packet slabs, 1 first-block slab, 2 round-trip slabs and the free lists", got)
	}

	b := NewPool()
	b.Adopt(slabs)
	seen := map[*telemetry.HopRecord]bool{}
	for i := 0; i < 2*slabPackets; i++ {
		blk := tripOf(t, deep(b))
		if seen[blk] {
			t.Fatalf("round-trip block %p attached twice", blk)
		}
		seen[blk] = true
	}
	if b.trips.news != 0 || b.firsts.news != 0 {
		t.Fatalf("adopted run carved %d round-trip and %d first blocks fresh, want 0", b.trips.news, b.firsts.news)
	}
	for blk := range held {
		if !seen[blk] {
			t.Fatalf("round-trip block %p was not reclaimed", blk)
		}
	}
	deep(b)
	if b.trips.news != 1 {
		t.Fatalf("round-trip news = %d after outrunning the adopted slabs, want 1", b.trips.news)
	}
}

type slabCount struct{ pkts, firsts, trips, lists int }

func countSlabs(slabs []Slab) (c slabCount) {
	for _, s := range slabs {
		switch s.mem.(type) {
		case *[slabPackets]Packet:
			c.pkts++
		case *[slabPackets]firstBlock:
			c.firsts++
		case *[slabPackets]tripBlock:
			c.trips++
		case *freeLists:
			c.lists++
		}
	}
	return c
}

// TestCrossPoolPutReclaimedOnce is the partitioned fabric in miniature:
// packets Get and stamped in one pool and Put into another sit, with
// their blocks, in the wrong free lists at Drain, and must still be
// handed on exactly once.
func TestCrossPoolPutReclaimedOnce(t *testing.T) {
	a, b := NewPool(), NewPool()
	var fromA, fromB []*Packet
	for i := 0; i < slabPackets+9; i++ {
		p := a.Get()
		dirty(a, p, i)
		fromA = append(fromA, p)
	}
	for i := 0; i < 50; i++ {
		p := b.Get()
		dirty(b, p, i)
		fromB = append(fromB, p)
	}
	for _, p := range fromA {
		b.Put(p)
	}
	for _, p := range fromB {
		a.Put(p)
	}
	for i := 0; i < 20; i++ { // back in flight, out of the wrong free lists
		dirty(a, a.Get(), i)
		dirty(b, b.Get(), i)
	}
	sa, sb := a.Drain(), b.Drain()
	ca, cb := countSlabs(sa), countSlabs(sb)
	if ca.pkts != ca.firsts || cb.pkts != cb.firsts {
		t.Fatalf("every packet was stamped, yet slabs are %+v and %+v", ca, cb)
	}
	total := (ca.pkts + cb.pkts) * slabPackets

	c := NewPool()
	c.Adopt(sa)
	c.Adopt(sb)
	getDistinct(t, c, total, map[*Packet]bool{}, map[*telemetry.HopRecord]bool{})
	if _, news, _ := c.Stats(); news != 0 {
		t.Fatalf("news = %d over the adopted slabs, want 0", news)
	}
	if _, news, _ := c.HopStats(); news != 0 {
		t.Fatalf("hop news = %d over the adopted hop slabs, want 0", news)
	}
}

// TestPutOfForeignPacket: a packet the pool did not make — here one
// built as the benchmark ladder and tests build them, with a literal hop
// slice — recycles through the free list, its hop slice does not pass
// for a block, and neither is part of what Drain hands on.
func TestPutOfForeignPacket(t *testing.T) {
	pl := NewPool()
	foreign := &Packet{Flow: 9, PayloadLen: 1000}
	literalStack(foreign, []telemetry.HopRecord{{QLen: 1}})
	pl.Put(foreign)
	if got := pl.Get(); got != foreign || got.Flow != 0 || got.Hops() != nil {
		t.Fatalf("Get after foreign Put = %p %+v, want the zeroed %p", got, *got, foreign)
	}
	if gets, news, puts := pl.Stats(); gets != 1 || news != 0 || puts != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/0/1", gets, news, puts)
	}
	if _, _, puts := pl.HopStats(); puts != 0 {
		t.Fatal("a one-record literal was recycled as a hop block")
	}
	if c := countSlabs(pl.Drain()); c.pkts+c.firsts+c.trips != 0 {
		t.Fatalf("foreign packet produced slabs: %+v", c)
	}
}

// TestPoolEdges: the nil pool and the kill-switch keep allocating plain
// packets, stamp by plain append, and carry nothing from run to run.
func TestPoolEdges(t *testing.T) {
	var nilPool *Pool
	p := nilPool.Get()
	checkFresh(t, p)
	nilPool.Stamp(p, telemetry.HopRecord{QLen: 3})
	if len(p.Hops()) != 1 || p.Hops()[0].QLen != 3 {
		t.Fatalf("nil pool stamp = %+v", p.Hops())
	}
	nilPool.Put(p)
	nilPool.Adopt(make([]Slab, 1))
	if g, n, u := nilPool.HopStats(); nilPool.Drain() != nil || nilPool.Live() != 0 || g+n+u != 0 {
		t.Fatal("nil pool holds state")
	}

	warm := NewPool()
	dirty(warm, warm.Get(), 0)
	slabs := warm.Drain()

	SetPooling(false)
	defer SetPooling(true)
	pl := NewPool()
	pl.Adopt(slabs)
	p = pl.Get()
	checkFresh(t, p)
	dirty(pl, p, 4)
	if len(p.Hops()) != 2 || p.Hops()[0].QLen != 5 {
		t.Fatalf("disabled pool stamp = %+v", p.Hops())
	}
	pl.Put(p)
	hg, hn, hp := pl.HopStats()
	if gets, news, puts := pl.Stats(); gets+news+puts+hg+hn+hp != 0 || pl.Live() != 0 {
		t.Fatalf("disabled pool counted %d/%d/%d packets, %d/%d/%d blocks", gets, news, puts, hg, hn, hp)
	}
	if got := pl.Drain(); len(got) != 0 {
		t.Fatalf("disabled pool adopted %d slabs", len(got))
	}
}

// HopRoom lends a round-trip block, counted as attached and never
// returned, which Drain hands on with its slab like any other: a pool
// that adopted it lends it again without allocating. A nil or disabled
// pool lends nothing.
func TestHopRoomLendsRoundTripBlock(t *testing.T) {
	pl := NewPool()
	room := pl.HopRoom()
	if len(room) != 0 || cap(room) != telemetry.PathHopCap {
		t.Fatalf("room has length %d and capacity %d, want 0 and %d", len(room), cap(room), telemetry.PathHopCap)
	}
	if gets, news, puts := pl.HopStats(); gets != 1 || news != 1 || puts != 0 {
		t.Fatalf("lending counted %d/%d/%d, want 1 attached, 1 new, 0 returned", gets, news, puts)
	}
	next := NewPool()
	next.Adopt(pl.Drain())
	if again := next.HopRoom(); &again[:1][0] != &room[:1][0] {
		t.Fatal("the adopting pool lent another block")
	}
	if _, news, _ := next.HopStats(); news != 0 {
		t.Fatalf("the adopting pool allocated %d blocks", news)
	}
	var nilPool *Pool
	if nilPool.HopRoom() != nil {
		t.Fatal("a nil pool lent room")
	}
	SetPooling(false)
	defer SetPooling(true)
	if NewPool().HopRoom() != nil {
		t.Fatal("a disabled pool lent room")
	}
}

// TestSteadyStateAllocatesNothing: Get/stamp/Put round trips, and
// carving packets and blocks out of adopted slabs with the adopted free
// lists filling behind them, are allocation-free.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	pl := NewPool()
	roundTrip := func() {
		p := pl.Get()
		pl.Stamp(p, telemetry.HopRecord{QLen: 1})
		pl.Stamp(p, telemetry.HopRecord{QLen: 2})
		pl.Put(p)
	}
	roundTrip()
	if a := testing.AllocsPerRun(100, roundTrip); a != 0 {
		t.Fatalf("Get/Stamp/Put round trip allocates %v", a)
	}

	warm := NewPool()
	var held []*Packet
	for i := 0; i < 2*slabPackets; i++ {
		p := warm.Get()
		dirty(warm, p, i)
		held = append(held, p)
	}
	for _, p := range held { // grow both free lists to their full length
		warm.Put(p)
	}
	slabs := warm.Drain()
	next := NewPool()
	next.Adopt(slabs)
	held = held[:0]
	if a := testing.AllocsPerRun(1, func() {
		for i := 0; i < slabPackets-1; i++ {
			p := next.Get()
			next.Stamp(p, telemetry.HopRecord{QLen: 1})
			held = append(held, p)
		}
		for _, p := range held {
			next.Put(p)
		}
		held = held[:0]
	}); a != 0 {
		t.Fatalf("a warm run over adopted slabs allocates %v", a)
	}
}

// TestPacketLayout pins the arithmetic behind Packet's field order and
// slabPackets. On a 64-bit host a packet is 80 bytes: what every kind
// carries and every hop reads, the queue link included, in the first
// 48, and the words a kind owns after them. Every kind of slab must be
// a size the Go allocator hands out without rounding up, or every slab
// wastes the difference and live heap rises. If Packet or HopRecord
// changes size, pick slabPackets anew. On a 32-bit host pointers are
// half as wide: the packet is smaller and its common part still ends
// below offset 48, but its slab size is not pinned.
func TestPacketLayout(t *testing.T) {
	const wide = unsafe.Sizeof(uintptr(0)) == 8
	var p Packet
	if got := unsafe.Sizeof(p); got > 80 || (wide && got != 80) {
		t.Errorf("Packet is %d bytes, want 80 on a 64-bit host and at most that elsewhere", got)
	}
	for name, off := range map[string]uintptr{
		"hops":       unsafe.Offsetof(p.hops),
		"Next":       unsafe.Offsetof(p.Next),
		"Flow":       unsafe.Offsetof(p.Flow),
		"Src":        unsafe.Offsetof(p.Src),
		"Dst":        unsafe.Offsetof(p.Dst),
		"PayloadLen": unsafe.Offsetof(p.PayloadLen),
		"Kind":       unsafe.Offsetof(p.Kind),
		"Priority":   unsafe.Offsetof(p.Priority),
		"ECT":        unsafe.Offsetof(p.ECT),
		"CE":         unsafe.Offsetof(p.CE),
		"EchoECN":    unsafe.Offsetof(p.EchoECN),
		"nhops":      unsafe.Offsetof(p.nhops),
		"hopCap":     unsafe.Offsetof(p.hopCap),
	} {
		if off >= 48 {
			t.Errorf("%s sits at offset %d, past the 48 bytes every kind carries", name, off)
		}
	}
	if got := unsafe.Sizeof([slabPackets]Packet{}); wide && got != 10240 { // a malloc size class
		t.Errorf("a packet slab is %d bytes, want 10240", got)
	}
	if got := unsafe.Sizeof([slabPackets]firstBlock{}); got != 16384 {
		t.Errorf("a first-block slab is %d bytes, want 16384", got)
	}
	if got := unsafe.Sizeof([slabPackets]tripBlock{}); got != 49152 || got%8192 != 0 { // large object: whole pages
		t.Errorf("a round-trip block slab is %d bytes, want 49152, a whole number of pages", got)
	}
}

// TestKindWords: every accessor a kind owns reads back what its setter
// wrote, so no two words a kind uses share storage.
func TestKindWords(t *testing.T) {
	var d Packet // Data: Seq, SentAt and, on HOMA, MsgID and MsgLen
	d.Kind, d.PayloadLen, d.MsgID = Data, 1000, 99
	d.SetSeq(5000)
	d.SetSentAt(sim.Time(7))
	d.SetMsgLen(1 << 20)
	if d.Seq() != 5000 || d.End() != 6000 || d.SentAt() != 7 || d.MsgID != 99 || d.MsgLen() != 1<<20 {
		t.Errorf("data words read Seq %d End %d SentAt %d MsgID %d MsgLen %d", d.Seq(), d.End(), d.SentAt(), d.MsgID, d.MsgLen())
	}

	var a Packet // Ack: AckSeq and EchoSent
	a.Kind = Ack
	a.SetAckSeq(150)
	a.SetEchoSent(sim.Time(11))
	if a.AckSeq() != 150 || a.EchoSent() != 11 {
		t.Errorf("ack words read AckSeq %d EchoSent %d", a.AckSeq(), a.EchoSent())
	}

	var g Packet // Grant: Seq, MsgID and GrantOffset
	g.Kind, g.MsgID = Grant, 42
	g.SetSeq(-2)
	g.SetGrantOffset(64000)
	if g.Seq() != -2 || g.MsgID != 42 || g.GrantOffset() != 64000 {
		t.Errorf("grant words read Seq %d MsgID %d GrantOffset %d", g.Seq(), g.MsgID, g.GrantOffset())
	}
}

// TestRecycledAckIsZero: the words an ACK writes are the words a data
// packet reads, so a recycled ACK must come out of Get with both zero,
// whichever kind's accessor reads them.
func TestRecycledAckIsZero(t *testing.T) {
	pl := NewPool()
	ack := pl.Get()
	ack.Kind = Ack
	ack.SetAckSeq(150)
	ack.SetEchoSent(sim.Time(11))
	pl.Put(ack)
	p := pl.Get()
	if p != ack {
		t.Fatal("Get did not hand back the ACK just returned")
	}
	if p.AckSeq() != 0 || p.EchoSent() != 0 || p.Seq() != 0 || p.SentAt() != 0 {
		t.Fatalf("recycled ACK reads AckSeq %d EchoSent %d (Seq %d SentAt %d), want zeros",
			p.AckSeq(), p.EchoSent(), p.Seq(), p.SentAt())
	}
}

// BenchmarkStampRoundTrip is one packet's INT life on a fat-tree round
// trip — Get, the stamps, Put — at the depths of a path inside a rack
// (2), inside a pod (6) and across the core (10). The last two pay the
// move into a round-trip block.
func BenchmarkStampRoundTrip(b *testing.B) {
	for _, depth := range []int{2, 6, 10} {
		b.Run(fmt.Sprintf("hops=%d", depth), func(b *testing.B) {
			pl := NewPool()
			h := telemetry.HopRecord{QLen: 1}
			for i := 0; i < b.N; i++ {
				p := pl.Get()
				for j := 0; j < depth; j++ {
					pl.Stamp(p, h)
				}
				pl.Put(p)
			}
		})
	}
}
