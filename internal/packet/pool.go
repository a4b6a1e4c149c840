package packet

import (
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

// slabPackets is the number of packets per slab. 128 puts both halves of
// a slab on an exact Go allocation size: 128 Packets are 18,432 bytes (a
// size class) and their 128×PathHopCap hop records are 49,152 bytes (six
// pages), so slabs round up to nothing.
const slabPackets = 128

// Slab is one block of packet memory: slabPackets packets and, in a
// parallel block, the PathHopCap hop records behind each one's Hops —
// two allocations per 128 packets instead of two per packet. A packet
// belongs for life to the slab that made it, whichever pools it passes
// through. The type is opaque; it exists so a finished run's slabs can
// travel from Drain to the next run's Adopt.
type Slab struct {
	pkts    *[slabPackets]Packet
	hops    *[slabPackets * telemetry.PathHopCap]telemetry.HopRecord
	adopted bool // came in through Adopt: carving it is not a "new"
}

// packet returns the slab's i-th packet, zeroed, its Hops empty over the
// slab's own hop storage.
func (s *Slab) packet(i int) *Packet {
	const c = telemetry.PathHopCap
	p := &s.pkts[i]
	*p = Packet{Hops: s.hops[i*c : i*c : (i+1)*c]}
	return p
}

// Pool hands out packets. Every simulation engine gets one pool shared by
// its hosts, switches and ports; packets are taken with Get at every send
// point and returned with Put at every consume point (NIC receive of a
// data/control packet, ACK consumption at the sender, and admission
// drops).
//
// A Get is served from the free list of returned packets, else carved
// from the pool's slabs in order — slabs adopted from a finished run
// first, then slabs the pool allocates itself. The pool remembers every
// slab, so Drain can hand all of its packet memory on, including the
// packets still in flight.
//
// Invariants (see PERF.md):
//   - After Put(p) the caller must not touch p or p.Hops again: both are
//     recycled in place and will be handed to an unrelated sender.
//   - A packet may be Put at most once per Get.
//   - After Drain no packet this pool ever handed out may be touched.
//   - Pools are engine-local and therefore goroutine-local; they are NOT
//     safe for concurrent use, matching the single-threaded engine.
//
// The nil *Pool is valid and degrades to plain allocation, so optional
// integration points can call through unconditionally.
type Pool struct {
	free   []*Packet
	slabs  []Slab
	carved int // packets carved so far: slabs[carved/slabPackets], element carved%slabPackets

	gets uint64 // total Get calls
	news uint64 // Gets served by neither the free list nor an adopted slab
	puts uint64 // total Put calls
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet whose Hops is empty with PathHopCap
// capacity (a recycled packet keeps whatever hop storage it was Put
// with), so steady-state INT stamping allocates nothing.
func (pl *Pool) Get() *Packet {
	if pl == nil || !poolingEnabled.Load() {
		return &Packet{Hops: make([]telemetry.HopRecord, 0, telemetry.PathHopCap)}
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
		pl.slabs = append(pl.slabs, Slab{
			pkts: new([slabPackets]Packet),
			hops: new([slabPackets * telemetry.PathHopCap]telemetry.HopRecord),
		})
	}
	s := &pl.slabs[si]
	if !s.adopted {
		pl.news++
	}
	pl.carved++
	return s.packet(i)
}

// Put recycles p through the free list. The hop slice is truncated but
// its backing array is kept, and every other field is zeroed. Put of nil
// is a no-op. The pool need not have made p: a packet from another
// pool's slab (a partitioned fabric sends across pools) or from a plain
// allocation circulates like any other — it is reclaimed with the slab
// that owns it, or by the garbage collector if none does.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil || !poolingEnabled.Load() {
		return
	}
	pl.puts++
	hops := p.Hops[:0]
	*p = Packet{}
	p.Hops = hops
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

// Adopt takes over the slabs of a finished run (see Drain): the pool
// carves them before allocating any of its own, and every packet carved
// is zeroed on the way out, so a pool warmed from another run hands out
// packets indistinguishable from fresh allocations. With pooling
// disabled the call is a no-op, keeping kill-switch runs
// allocation-honest.
func (pl *Pool) Adopt(slabs []Slab) {
	if pl == nil || !poolingEnabled.Load() {
		return
	}
	for _, s := range slabs {
		s.adopted = true
		pl.slabs = append(pl.slabs, s)
	}
}

// Drain ends the pool's run and returns every slab it made or adopted,
// for the next run's pool to Adopt. All of their packets are reclaimed —
// free, queued in a port, or in flight on the engine — so Drain is only
// for a run that is over: nothing that holds a packet from this pool may
// be used again. The free list is dropped with it (its packets live in
// some pool's slabs, or were never pool-made and fall to the garbage
// collector), which is what keeps a packet that was Get in one partition
// and Put in another from being handed on twice.
func (pl *Pool) Drain() []Slab {
	if pl == nil {
		return nil
	}
	slabs := pl.slabs
	pl.free, pl.slabs, pl.carved = nil, nil, 0
	return slabs
}
