package packet

import (
	"math"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/telemetry"
)

// poolingEnabled is the global kill-switch used by determinism tests to
// compare pooled against pool-disabled runs. It defaults to on; flipping
// it must not change any simulation output, only allocation behavior.
var poolingEnabled atomic.Bool

func init() { poolingEnabled.Store(true) }

// SetPooling turns packet pooling on or off process-wide. It exists for
// the pooled-vs-unpooled determinism comparison; production code leaves
// pooling on.
func SetPooling(on bool) { poolingEnabled.Store(on) }

// slabPackets is the number of elements per slab, of any kind. 128 puts
// every kind on an exact Go allocation size on a 64-bit host: 128
// Packets are 10,240 bytes and 128 first blocks 16,384 bytes (both size
// classes), and 128 round-trip blocks are 49,152 bytes (six pages), so
// slabs round up to nothing.
const slabPackets = 128

// firstHops is the capacity of the block a packet's first stamp
// attaches: 128 bytes, two cache lines. Switches stamp at dequeue, so a
// data packet crossing a fat-tree's core (ToR, agg, core, agg, ToR: five
// stamps one way) waits in every queue of its path with at most four
// records. The fifth stamp moves the stack, once, into a round-trip
// block of telemetry.PathHopCap records, which the ACK inherits.
const firstHops = 4

type (
	// firstBlock is the INT storage a packet's first stamp attaches.
	firstBlock [firstHops]telemetry.HopRecord
	// tripBlock is the storage a stack moves into at its fifth stamp,
	// sized for the deepest round trip.
	tripBlock [telemetry.PathHopCap]telemetry.HopRecord
)

// Slab is one piece of a pool's run memory: slabPackets elements of one
// kind — packets, first blocks or round-trip blocks — or the emptied
// backing arrays of the pool's free lists. An element belongs for life
// to the slab that made it, whichever pools it passes through. The type
// is opaque; it exists so a finished run's memory can travel from Drain
// to the next run's Adopt.
type Slab struct {
	mem     any  // *[slabPackets]Packet, *[slabPackets]firstBlock, *[slabPackets]tripBlock or *freeLists
	adopted bool // came in through Adopt: carving it is not a "new"
}

// freeLists are the backing arrays of a drained pool's free lists, every
// element nil. They ride along with the slabs so a warm run regrows none
// of the lists.
type freeLists struct {
	pkts   []*Packet
	firsts []*firstBlock
	trips  []*tripBlock
}

// store is one kind of pooled element: a LIFO free list of returned
// elements in front of slabs carved in order — slabs adopted from a
// finished run first, then slabs the store allocates itself.
type store[T any] struct {
	free   []*T
	slabs  []Slab
	carved int // elements carved so far: slabs[carved/slabPackets], element carved%slabPackets

	gets uint64 // elements taken
	news uint64 // of those, served by neither the free list nor an adopted slab
	puts uint64 // elements returned
}

// take returns an element whose contents are unspecified: the last one
// returned, else the next one carved from the slabs, allocating a slab
// when they are used up.
func (s *store[T]) take() *T {
	s.gets++
	if k := len(s.free); k > 0 {
		e := s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		return e
	}
	si, i := s.carved/slabPackets, s.carved%slabPackets
	if si == len(s.slabs) {
		s.slabs = append(s.slabs, Slab{mem: new([slabPackets]T)})
	}
	sl := &s.slabs[si]
	if !sl.adopted {
		s.news++
	}
	s.carved++
	return &sl.mem.(*[slabPackets]T)[i]
}

func (s *store[T]) put(e *T) {
	s.puts++
	s.free = append(s.free, e)
}

// adopt takes sl over if it is a slab of this store's kind.
func (s *store[T]) adopt(sl Slab) bool {
	if _, ok := sl.mem.(*[slabPackets]T); !ok {
		return false
	}
	sl.adopted = true
	s.slabs = append(s.slabs, sl)
	return true
}

// adoptFree keeps the roomier of the store's free-list array and an
// emptied one handed on; the store's own is empty unless Adopt comes
// mid-run.
func (s *store[T]) adoptFree(free []*T) {
	if len(s.free) == 0 && cap(free) > cap(s.free) {
		s.free = free
	}
}

// drain forgets the store's slabs and returns its free-list array,
// emptied.
func (s *store[T]) drain() []*T {
	free := s.free[:0]
	clear(s.free)
	s.free, s.slabs, s.carved = nil, nil, 0
	return free
}

// Pool hands out packets and the hop blocks behind their INT stacks.
// Every simulation engine gets one pool shared by its hosts, switches
// and ports; packets are taken with Get at every send point and returned
// with Put at every consume point (NIC receive of a data/control packet,
// ACK consumption at the sender, and admission drops), and switches
// record INT through Stamp.
//
// Each kind — packets, first blocks, round-trip blocks — is a store: a
// Get or a block is served from its free list of returned elements, else
// carved from its slabs in order. A packet's first Stamp attaches a
// first block; its fifth moves the stack into a round-trip block and
// returns the first block, so hop storage follows what a packet has
// stamped. The pool remembers every slab of every kind, so Drain can
// hand all of its memory on, including the packets and blocks still in
// flight.
//
// Invariants (see PERF.md):
//   - A packet from Get holds no INT stack. A stack grows only through
//     Stamp and moves between packets only whole, through TakeHops; the
//     storage is unexported, so the compiler keeps every other package
//     to those two.
//   - A block is in exactly one place: one packet's stack, or its kind's
//     free list, or not yet carved.
//   - After Put(p) the caller must not touch p or a view p.Hops returned
//     again: both are recycled and will be handed to unrelated senders.
//   - A packet may be Put at most once per Get.
//   - After Drain no packet this pool ever handed out may be touched.
//   - Pools are engine-local and therefore goroutine-local; they are NOT
//     safe for concurrent use, matching the single-threaded engine.
//
// The nil *Pool is valid and degrades to plain allocation, so optional
// integration points can call through unconditionally.
type Pool struct {
	pkts   store[Packet]
	firsts store[firstBlock]
	trips  store[tripBlock]
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet. It holds no INT stack: hop storage is
// attached by the first Stamp, so a packet that never meets a switch
// never holds any.
func (pl *Pool) Get() *Packet {
	if pl == nil || !poolingEnabled.Load() {
		return &Packet{}
	}
	p := pl.pkts.take()
	*p = Packet{} // a returned packet, or an adopted slab's from the last run
	return p
}

// Stamp appends one INT record to p's stack. The first record attaches
// a first block and the fifth moves the four before it into a round-trip
// block, returning the first block; the rest land in place, so
// steady-state stamping allocates nothing. A stack deeper than
// telemetry.PathHopCap, and every stack under a nil pool or with pooling
// disabled, grows onto the heap the way append grows a slice.
func (pl *Pool) Stamp(p *Packet, h telemetry.HopRecord) {
	if p.nhops == p.hopCap { // kept this small so Stamp inlines
		pl.makeRoom(p)
	}
	unsafe.Slice(p.hops, p.hopCap)[p.nhops] = h
	p.nhops++
}

// makeRoom gives a full stack a block with room: a first block to a
// stack with none, a round-trip block, records copied, to a full first
// block. A full round-trip block, and any stack under a nil pool or with
// pooling disabled, moves to heap storage instead.
func (pl *Pool) makeRoom(p *Packet) {
	pooled := pl != nil && poolingEnabled.Load()
	switch {
	case pooled && p.hops == nil:
		p.hops, p.hopCap = &pl.firsts.take()[0], firstHops
	case pooled && p.hopCap == firstHops:
		trip := pl.trips.take()
		copy(trip[:], p.Hops())
		pl.firsts.put((*firstBlock)(unsafe.Pointer(p.hops)))
		p.hops, p.hopCap = &trip[0], telemetry.PathHopCap
	default:
		if p.nhops == math.MaxUint8 {
			panic("packet: INT stack deeper than 255 records")
		}
		s := append(p.Hops(), telemetry.HopRecord{})
		p.hops, p.hopCap = &s[0], uint8(min(cap(s), math.MaxUint8))
	}
}

// Put recycles p through the free list (Get zeroes it on the way out)
// and its hop block, if it holds one, through its kind's free list. Put
// of nil is a no-op. The pool need not have made either: a packet or
// block from another pool's slab (a partitioned fabric sends across
// pools) or from a plain allocation circulates like any other — it is
// reclaimed with the slab that owns it, or by the garbage collector if
// none does. Hop storage of any other capacity than a block's (a stack
// that outgrew its round-trip block, say) is left to the garbage
// collector.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil || !poolingEnabled.Load() {
		return
	}
	switch p.hopCap {
	case firstHops:
		pl.firsts.put((*firstBlock)(unsafe.Pointer(p.hops)))
	case telemetry.PathHopCap:
		pl.trips.put((*tripBlock)(unsafe.Pointer(p.hops)))
	}
	pl.pkts.put(p)
}

// HopRoom returns an empty slice with room for a round trip's INT
// records, carved like a round-trip block, for a holder that keeps a
// copy of a stack past its packet (a control law's snapshot, see
// cc.Lender). The block is never Put: it goes back with its slab when
// the run's memory is handed on (Drain), so a warm run's snapshots cost
// no allocation. Nil under a nil pool or with pooling disabled, where
// the holder's copy goes to the heap.
func (pl *Pool) HopRoom() []telemetry.HopRecord {
	if pl == nil || !poolingEnabled.Load() {
		return nil
	}
	return pl.trips.take()[:0]
}

// Stats reports pool traffic: total Gets, how many of them had to be
// served from freshly allocated memory (neither the free list nor an
// adopted slab), and total Puts. Benchmarks use it to report
// allocs/packet.
func (pl *Pool) Stats() (gets, news, puts uint64) {
	if pl == nil {
		return 0, 0, 0
	}
	return pl.pkts.gets, pl.pkts.news, pl.pkts.puts
}

// HopStats is Stats for hop blocks of both sizes: blocks attached (a
// first block at a packet's first stamp, a round-trip block at its
// fifth or lent by HopRoom), how many of those were served from freshly
// allocated memory, and blocks returned (by Put, or by the move into a
// round-trip block). Attached minus returned is the blocks packets and
// snapshots hold.
func (pl *Pool) HopStats() (gets, news, puts uint64) {
	if pl == nil {
		return 0, 0, 0
	}
	f, t := &pl.firsts, &pl.trips
	return f.gets + t.gets, f.news + t.news, f.puts + t.puts
}

// Live reports the packets currently checked out of the pool (Gets
// minus Puts) — the live-object watermark the guard package's pool
// budget samples at its sim-time checkpoints. The count is a pure
// function of the simulation's event history, so it is deterministic
// and partition-invariant when summed across a fabric's pools. With
// pooling disabled both counters stay zero and Live reports zero; the
// pool budget is documented as inert in that (test-only) mode.
func (pl *Pool) Live() uint64 {
	if pl == nil {
		return 0
	}
	return pl.pkts.gets - pl.pkts.puts
}

// Adopt takes over the run memory of a finished run (see Drain): the
// pool carves the adopted slabs of each kind before allocating any of
// its own, and every packet carved is zeroed on the way out, so a pool
// warmed from another run hands out packets indistinguishable from
// fresh allocations. With pooling disabled the call is a no-op, keeping
// kill-switch runs allocation-honest.
func (pl *Pool) Adopt(slabs []Slab) {
	if pl == nil || !poolingEnabled.Load() {
		return
	}
	// Room for the whole hand-over in one list, so that Drain joins the
	// three in place when the run carves no more than the last one did.
	pl.pkts.slabs = slices.Grow(pl.pkts.slabs, len(slabs))
	for _, s := range slabs {
		if pl.pkts.adopt(s) || pl.firsts.adopt(s) || pl.trips.adopt(s) {
			continue
		}
		if l, ok := s.mem.(*freeLists); ok {
			pl.pkts.adoptFree(l.pkts)
			pl.firsts.adoptFree(l.firsts)
			pl.trips.adoptFree(l.trips)
		}
	}
}

// Drain ends the pool's run and returns all of its run memory — every
// slab of every kind it made or adopted, and its free lists' backing
// arrays — for the next run's pool to Adopt. All of their packets and
// blocks are reclaimed — free, queued in a port, or in flight on the
// engine — so Drain is only for a run that is over: nothing that holds a
// packet from this pool may be used again. The free lists' contents are
// dropped (their elements live in some pool's slabs, or were never
// pool-made and fall to the garbage collector), which is what keeps a
// packet that was Get in one partition and Put in another from being
// handed on twice.
func (pl *Pool) Drain() []Slab {
	if pl == nil {
		return nil
	}
	out := append(append(pl.pkts.slabs, pl.firsts.slabs...), pl.trips.slabs...)
	lists := &freeLists{pkts: pl.pkts.drain(), firsts: pl.firsts.drain(), trips: pl.trips.drain()}
	if cap(lists.pkts)+cap(lists.firsts)+cap(lists.trips) > 0 {
		out = append(out, Slab{mem: lists})
	}
	return out
}
