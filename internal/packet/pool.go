package packet

import (
	"slices"
	"sync/atomic"

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

// PoolingEnabled reports whether packet pooling is active.
func PoolingEnabled() bool { return poolingEnabled.Load() }

// slabPackets is the number of elements per slab, of either kind. 128
// puts both kinds on an exact Go allocation size: 128 Packets are 16,384
// bytes (a size class) and 128 hop blocks are 49,152 bytes (six pages),
// so slabs round up to nothing.
const slabPackets = 128

// hopBlock is the INT storage of one packet: room for PathHopCap
// records, attached at the packet's first stamp.
type hopBlock [telemetry.PathHopCap]telemetry.HopRecord

// Slab is one piece of a pool's run memory: slabPackets packets, or
// slabPackets hop blocks, or the emptied backing arrays of the pool's
// two free lists — one allocation per 128 packets and one per 128
// packets that ever met a switch. An element belongs for life to the
// slab that made it, whichever pools it passes through. The type is
// opaque; it exists so a finished run's memory can travel from Drain to
// the next run's Adopt.
type Slab struct {
	pkts    *[slabPackets]Packet
	hops    *[slabPackets]hopBlock
	lists   *freeLists
	adopted bool // came in through Adopt: carving it is not a "new"
}

// freeLists are the backing arrays of a drained pool's free lists, every
// element nil. They ride along with the slabs so a warm run regrows
// neither list.
type freeLists struct {
	pkts []*Packet
	hops []*hopBlock
}

// Pool hands out packets and the hop blocks behind their INT stacks.
// Every simulation engine gets one pool shared by its hosts, switches
// and ports; packets are taken with Get at every send point and returned
// with Put at every consume point (NIC receive of a data/control packet,
// ACK consumption at the sender, and admission drops), and switches
// record INT through Stamp.
//
// A Get is served from the free list of returned packets, else carved
// from the pool's packet slabs in order — slabs adopted from a finished
// run first, then slabs the pool allocates itself. A packet's first
// Stamp is served the same way from the hop free list and the hop slabs.
// The pool remembers every slab of both kinds, so Drain can hand all of
// its memory on, including the packets and blocks still in flight.
//
// Invariants (see PERF.md):
//   - A packet from Get has Hops == nil. Outside this package Hops grows
//     only through Stamp (powervet's pooluse flags an append), and moves
//     between packets only whole: the taker gets the slice and the
//     donor's Hops is set to nil in the same statement.
//   - After Put(p) the caller must not touch p or p.Hops again: both are
//     recycled and will be handed to unrelated senders.
//   - A packet may be Put at most once per Get.
//   - After Drain no packet this pool ever handed out may be touched.
//   - Pools are engine-local and therefore goroutine-local; they are NOT
//     safe for concurrent use, matching the single-threaded engine.
//
// The nil *Pool is valid and degrades to plain allocation, so optional
// integration points can call through unconditionally.
type Pool struct {
	free   []*Packet
	slabs  []Slab // packet slabs
	carved int    // packets carved so far: slabs[carved/slabPackets], element carved%slabPackets

	hopFree   []*hopBlock
	hopSlabs  []Slab // hop-block slabs
	hopCarved int    // blocks carved so far, as carved

	gets uint64 // total Get calls
	news uint64 // Gets served by neither the free list nor an adopted slab
	puts uint64 // total Put calls

	hopGets uint64 // blocks attached: first stamps
	hopNews uint64 // of those, served by neither the hop free list nor an adopted slab
	hopPuts uint64 // blocks returned by Put
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet. Its Hops is nil: hop storage is attached
// by the first Stamp, so a packet that never meets a switch never holds
// any.
func (pl *Pool) Get() *Packet {
	if pl == nil || !poolingEnabled.Load() {
		return &Packet{}
	}
	pl.gets++
	if k := len(pl.free); k > 0 {
		p := pl.free[k-1]
		pl.free[k-1] = nil
		pl.free = pl.free[:k-1]
		return p
	}
	si, i := pl.carved/slabPackets, pl.carved%slabPackets
	if si == len(pl.slabs) {
		pl.slabs = append(pl.slabs, Slab{pkts: new([slabPackets]Packet)})
	}
	s := &pl.slabs[si]
	if !s.adopted {
		pl.news++
	}
	pl.carved++
	p := &s.pkts[i]
	*p = Packet{} // an adopted slab holds the last run's packets
	return p
}

// Stamp appends one INT record to p's stack. The first record of a
// packet attaches a hop block — from the hop free list, else carved from
// the hop slabs, else from a new slab — and the rest land in it, so
// steady-state stamping allocates nothing. A stack deeper than
// PathHopCap, and every stack under a nil pool or with pooling disabled,
// grows by plain append.
func (pl *Pool) Stamp(p *Packet, h telemetry.HopRecord) {
	if p.Hops == nil && pl != nil && poolingEnabled.Load() {
		p.Hops = pl.block()[:0]
	}
	p.Hops = append(p.Hops, h)
}

// block returns a hop block whose contents are unspecified.
func (pl *Pool) block() *hopBlock {
	pl.hopGets++
	if k := len(pl.hopFree); k > 0 {
		b := pl.hopFree[k-1]
		pl.hopFree[k-1] = nil
		pl.hopFree = pl.hopFree[:k-1]
		return b
	}
	si, i := pl.hopCarved/slabPackets, pl.hopCarved%slabPackets
	if si == len(pl.hopSlabs) {
		pl.hopSlabs = append(pl.hopSlabs, Slab{hops: new([slabPackets]hopBlock)})
	}
	s := &pl.hopSlabs[si]
	if !s.adopted {
		pl.hopNews++
	}
	pl.hopCarved++
	return &s.hops[i]
}

// Put recycles p through the free list, zeroed, and its hop block, if it
// holds one, through the hop free list. Put of nil is a no-op. The pool
// need not have made either: a packet or block from another pool's slab
// (a partitioned fabric sends across pools) or from a plain allocation
// circulates like any other — it is reclaimed with the slab that owns
// it, or by the garbage collector if none does. Hop storage of any other
// capacity than a block's (a stack that outgrew its block, a literal
// slice) is left to the garbage collector.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil || !poolingEnabled.Load() {
		return
	}
	pl.puts++
	if cap(p.Hops) == telemetry.PathHopCap {
		pl.hopPuts++
		pl.hopFree = append(pl.hopFree, (*hopBlock)(p.Hops[:telemetry.PathHopCap]))
	}
	*p = Packet{}
	pl.free = append(pl.free, p)
}

// Stats reports pool traffic: total Gets, how many of them had to be
// served from freshly allocated memory (neither the free list nor an
// adopted slab), and total Puts. Benchmarks use it to report
// allocs/packet.
func (pl *Pool) Stats() (gets, news, puts uint64) {
	if pl == nil {
		return 0, 0, 0
	}
	return pl.gets, pl.news, pl.puts
}

// HopStats is Stats for hop blocks: blocks attached (one per packet
// that was stamped at least once), how many of those were served from
// freshly allocated memory, and blocks returned by Put.
func (pl *Pool) HopStats() (gets, news, puts uint64) {
	if pl == nil {
		return 0, 0, 0
	}
	return pl.hopGets, pl.hopNews, pl.hopPuts
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
	return pl.gets - pl.puts
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
	// two in place when the run carves no more than the last one did.
	pl.slabs = slices.Grow(pl.slabs, len(slabs))
	for _, s := range slabs {
		s.adopted = true
		switch {
		case s.pkts != nil:
			pl.slabs = append(pl.slabs, s)
		case s.hops != nil:
			pl.hopSlabs = append(pl.hopSlabs, s)
		case s.lists != nil:
			// Keep the roomier array of each list; the pool's own are
			// empty unless Adopt comes mid-run.
			if len(pl.free) == 0 && cap(s.lists.pkts) > cap(pl.free) {
				pl.free = s.lists.pkts
			}
			if len(pl.hopFree) == 0 && cap(s.lists.hops) > cap(pl.hopFree) {
				pl.hopFree = s.lists.hops
			}
		}
	}
}

// Drain ends the pool's run and returns all of its run memory — every
// slab of either kind it made or adopted, and its free lists' backing
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
	out := append(pl.slabs, pl.hopSlabs...)
	if cap(pl.free)+cap(pl.hopFree) > 0 {
		clear(pl.free)
		clear(pl.hopFree)
		out = append(out, Slab{lists: &freeLists{pkts: pl.free[:0], hops: pl.hopFree[:0]}})
	}
	pl.free, pl.slabs, pl.carved = nil, nil, 0
	pl.hopFree, pl.hopSlabs, pl.hopCarved = nil, nil, 0
	return out
}
