package scenario

import (
	"sync"

	"repro/internal/packet"
	"repro/internal/sim"
)

// runScratch carries the memory a finished run owned to the next one:
// the event engine (Reset keeps its slot arrays, overflow backing, and
// node free list), every packet slab the run's pools made or adopted,
// and the lab's flow-record accumulator. Suites repeat near-identical
// runs — every figure is b.N repetitions or a panel of same-scale specs
// — so a warm run allocates no packets and grows no wheel slot; run
// memory is a one-time cost.
//
// Scratches hold no simulation state: a recycled engine is
// observationally identical to sim.New() and a packet carved from an
// adopted slab is zeroed on the way out, so recycling cannot change any
// run's output — the parallel-vs-serial and pooled-vs-unpooled
// determinism suites pin this. The sync.Pool keeps scratches per-P, so
// concurrent suite workers never contend or share a live scratch.
type runScratch struct {
	eng     *sim.Engine
	slabs   [][]packet.Slab // per pool of the finished run
	records []FlowRecord
}

var scratchPool = sync.Pool{New: func() any { return &runScratch{} }}

func getScratch() *runScratch { return scratchPool.Get().(*runScratch) }

// pools lists the fabric's packet pools: one per partition, or the
// single shared pool of a serial network.
func (l *Lab) pools() []*packet.Pool {
	if l.Net.Pools != nil {
		return l.Net.Pools
	}
	return []*packet.Pool{l.Net.Pool}
}

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
	// Partition engines are per-run and fall to the garbage collector;
	// only the control engine — the one the builder got from the
	// scratch — is recycled.
	sc.slabs = sc.slabs[:0]
	for _, pl := range l.pools() {
		sc.slabs = append(sc.slabs, pl.Drain())
	}
	l.Net.Eng.Reset()
	sc.eng = l.Net.Eng
	sc.records = l.Records[:0]
	l.Records = nil
	scratchPool.Put(sc)
}
