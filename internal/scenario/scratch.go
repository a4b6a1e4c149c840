package scenario

import (
	"sync"

	"repro/internal/homa"
	"repro/internal/packet"
	"repro/internal/psim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// runScratch carries the memory a finished run owned to the next one:
// the event engines (Reset keeps their slot arrays, overflow backing, and
// node free lists), the sync edges' mailboxes with their buffers, every
// packet slab the run's pools made or adopted, the lab's flow-record
// accumulator, and the arrays sized by the fabric: its ports, switches
// and the lists naming them (topo.Memory), its hosts and its flow table's
// blocks, the last two per transport. Suites repeat near-identical runs —
// every figure is b.N repetitions or a panel of same-scale specs, and a
// tail-FCT cell repeats one fabric at every seed and load — so a warm
// run, sharded or not, allocates no packets, grows no wheel slot and
// allocates none of its fabric's arrays; run memory is a one-time cost.
//
// A lab uses of the scratch what its own shape has a place for — the
// control engine, a shard engine per shard when it has several, a
// mailbox per sync edge, one slab list per pool, and the front of each
// kept array — and leaves the rest where it lies; Release writes back
// over the places the lab used. So a scratch that alternates between a
// sixteen-shard fabric and a two-host star (the benchmark parks one
// between passes; powersimd serves both kinds) keeps sixteen engines and
// sixteen slab lists, and the fabric finds every shard as well supplied
// as it left it.
//
// The kept arrays grow only: a lab carves from an array large enough for
// its fabric, and allocates one of the exact size otherwise, which then
// replaces the kept one. Release zeroes the prefix the lab used and
// nothing past it. So a scratch in the pool keeps every array all zero,
// pins nothing of a dead fabric, and is as large as the largest fabric
// that ran on it.
//
// Scratches hold no simulation state: a recycled engine is
// observationally identical to sim.New(), a packet carved from an
// adopted slab is zeroed on the way out, and a port, switch, host or
// flow slot is carved zeroed and initialized as a fresh one would be, so
// recycling cannot change any run's output — the parallel-vs-serial and
// pooled-vs-unpooled determinism suites and TestScratchArraysAcrossShapes
// pin this. The sync.Pool keeps scratches per-P, so concurrent suite
// workers never contend or share a live scratch.
type runScratch struct {
	eng     *sim.Engine     // the control engine, a one-shard run's only engine
	engs    []*sim.Engine   // shard engines
	boxes   []psim.Mailbox  // the sync edges' mailboxes, in the order they were made
	slabs   [][]packet.Slab // one list per pool
	records []FlowRecord

	// The fabric's arrays: ports, switches and the lists naming them.
	fabric topo.Memory
	// Each transport's hosts and flow table, apart because their types
	// differ; a lab of the other transport leaves them be.
	hosts     []transport.Host
	homaHosts []homa.Host
	flows     packet.Table
	homaFlows packet.Table
}

var scratchPool = sync.Pool{New: func() any { return &runScratch{} }}

func getScratch() *runScratch { return scratchPool.Get().(*runScratch) }

// Release ends the lab and returns its run memory to the scratch pool.
// It is the only point where packets are reclaimed, and it reclaims all
// of them — returned, queued in a port, or in flight on the engine — by
// handing every slab of every pool on whole. Nothing of the lab may be
// touched afterwards, not its packets, ports, hosts, switches or flow
// slots: the engine is reset, the fabric's arrays are zeroed, and the
// next run writes into the packets this one left in flight. Runners call
// this once the Result is fully composed; labs that are never released
// just leave their memory to the garbage collector.
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
	// The fabric goes back zeroed, the prefix it used of each array only.
	hosts, flows := len(l.Net.Hosts), l.Net.Flows
	l.Net.Recycle(&sc.fabric)
	flows.Clear()
	if l.Scheme.IsHoma() {
		clear(sc.homaHosts[:hosts])
		sc.homaFlows = flows
	} else {
		clear(sc.hosts[:hosts])
		sc.flows = flows
	}
	scratchPool.Put(sc)
}
