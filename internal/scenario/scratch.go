package scenario

import (
	"sync"

	"repro/internal/packet"
	"repro/internal/psim"
	"repro/internal/sim"
)

// runScratch carries the memory a finished run owned to the next one:
// the event engines (Reset keeps their slot arrays, overflow backing, and
// node free lists), the sync edges' mailboxes with their buffers, every
// packet slab the run's pools made or adopted, and the lab's flow-record
// accumulator. Suites repeat near-identical
// runs — every figure is b.N repetitions or a panel of same-scale specs
// — so a warm run, sharded or not, allocates no packets and grows no
// wheel slot; run memory is a one-time cost.
//
// A lab uses of the scratch what its own shape has a place for — the
// control engine, a shard engine per shard when it has several, a
// mailbox per sync edge, and one slab list per pool — and leaves the
// rest where it lies; Release writes
// back over the places the lab used. So a scratch that alternates between a
// sixteen-shard fabric and a two-host star (the benchmark parks one
// between passes; powersimd serves both kinds) keeps sixteen engines and
// sixteen slab lists, and the fabric finds every shard as well supplied
// as it left it.
//
// Scratches hold no simulation state: a recycled engine is
// observationally identical to sim.New() and a packet carved from an
// adopted slab is zeroed on the way out, so recycling cannot change any
// run's output — the parallel-vs-serial and pooled-vs-unpooled
// determinism suites pin this. The sync.Pool keeps scratches per-P, so
// concurrent suite workers never contend or share a live scratch.
type runScratch struct {
	eng     *sim.Engine     // the control engine, a one-shard run's only engine
	engs    []*sim.Engine   // shard engines
	boxes   []psim.Mailbox  // the sync edges' mailboxes, in the order they were made
	slabs   [][]packet.Slab // one list per pool
	records []FlowRecord
}

var scratchPool = sync.Pool{New: func() any { return &runScratch{} }}

func getScratch() *runScratch { return scratchPool.Get().(*runScratch) }

// Release ends the lab and returns its run memory to the scratch pool.
// It is the only point where packets are reclaimed, and it reclaims all
// of them — returned, queued in a port, or in flight on the engine — by
// handing every slab of every pool on whole. Nothing of the lab may be
// touched afterwards, not its packets, ports, hosts or switches: the
// engine is reset and the next run writes into the packets this one
// left in flight. Runners call this once the Result is fully
// composed; labs that are never released just leave their memory to the
// garbage collector.
func (l *Lab) Release() {
	sc := l.scratch
	if sc == nil || l.Net == nil {
		return
	}
	l.scratch = nil
	// One slab list per pool, so a repeat of the run finds each partition
	// as well supplied as it left it. A packet sent across a cut sits in
	// another pool's free list, but it still belongs to the slab that
	// made it, so collecting slabs hands each packet on exactly once.
	for i, pl := range l.Net.Pools {
		if i == len(sc.slabs) {
			sc.slabs = append(sc.slabs, nil)
		}
		sc.slabs[i] = pl.Drain()
	}
	// The shard engines the scratch lent are still in their places; those
	// the builder made join behind them. A one-shard fabric's shard is the
	// control engine, which goes back as that.
	for i, e := range l.Net.Engs {
		if e == l.Net.Eng {
			break
		}
		e.Reset()
		if i == len(sc.engs) {
			sc.engs = append(sc.engs, e)
		}
	}
	l.Net.Eng.Reset()
	sc.eng = l.Net.Eng
	sc.boxes = l.Net.PSim.Mailboxes(sc.boxes)
	sc.records = l.Records[:0]
	l.Records = nil
	scratchPool.Put(sc)
}
