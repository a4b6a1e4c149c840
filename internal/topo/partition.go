package topo

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// Plan assigns every host and switch of a topology to one of Parts
// partitions (shards). Builders consume it (via Options.Partition) to
// place each entity on its partition's engine and packet pool; which
// links cross partitions, and the sync edges they need, follow from the
// wiring (Network.wireSwitches). The shards are the fabric's:
// FatTreeConfig.Partitions and LeafSpineConfig.Partitions give the
// topology-natural plans, and a builder given no plan runs on the
// one-shard plan, whose shard is the control engine.
type Plan struct {
	Parts int
	// Workers is how many goroutines step the partitions (internal/psim):
	// partition i belongs to worker i mod Workers, and one worker means the
	// goroutine that drives the run, with none started. It is at least
	// one; workers beyond the partition count have nothing to step and are
	// not started. The fabric's plans come with one; the caller raises it.
	Workers    int
	HostPart   []int
	SwitchPart []int
}

// onePart is the plan of a fabric that runs on one engine: every host
// and switch on partition 0, one worker.
func onePart(hosts, switches int) *Plan {
	return &Plan{Parts: 1, Workers: 1, HostPart: make([]int, hosts), SwitchPart: make([]int, switches)}
}

// validate panics on a plan that does not fit the fabric being built or
// is internally inconsistent — a size that is not the fabric's, a
// partition index out of range, no worker. Builders call it so a
// hand-written plan fails at construction, not as a determinism
// divergence later.
func (pl *Plan) validate(hosts, switches int) {
	if len(pl.HostPart) != hosts || len(pl.SwitchPart) != switches {
		panic(fmt.Sprintf("topo: plan places %d hosts and %d switches on a fabric of %d and %d",
			len(pl.HostPart), len(pl.SwitchPart), hosts, switches))
	}
	if pl.Parts < 1 || pl.Workers < 1 {
		panic(fmt.Sprintf("topo: plan has %d partitions on %d workers", pl.Parts, pl.Workers))
	}
	for i, p := range pl.HostPart {
		if p < 0 || p >= pl.Parts {
			panic(fmt.Sprintf("topo: host %d assigned to partition %d of %d", i, p, pl.Parts))
		}
	}
	for i, p := range pl.SwitchPart {
		if p < 0 || p >= pl.Parts {
			panic(fmt.Sprintf("topo: switch %d assigned to partition %d of %d", i, p, pl.Parts))
		}
	}
}

// minWireTx returns the serialization time of the smallest frame any
// packet can occupy on the wire (a bare header — pure ACKs, grants and
// CNPs are exactly this size).
func minWireTx(rate units.BitRate) sim.Duration {
	return rate.TxTime(packet.HeaderSize)
}

// Partitions returns the fat-tree's plan: one partition per pod, its
// ToRs, aggregation switches and all their hosts, with core c on
// partition c mod Pods. Intra-pod links (host–ToR, ToR–agg) therefore
// never cross a boundary; the only cuts are agg–core links whose
// endpoints landed on different partitions, and every one of them
// carries the core's 5 µs of propagation — the longest wires in the fabric
// make the natural cut, maximizing the conservative-sync window.
func (c FatTreeConfig) Partitions() *Plan {
	c.fillDefaults()
	p := c.Pods
	nTors := p * c.TorsPerPod
	nAggs := p * c.AggsPerPod
	pl := &Plan{
		Parts:      p,
		Workers:    1,
		HostPart:   make([]int, nTors*c.ServersPerTor),
		SwitchPart: make([]int, nTors+nAggs+c.Cores),
	}
	for t := 0; t < nTors; t++ {
		part := t / c.TorsPerPod
		pl.SwitchPart[t] = part
		for s := 0; s < c.ServersPerTor; s++ {
			pl.HostPart[t*c.ServersPerTor+s] = part
		}
	}
	for a := 0; a < nAggs; a++ {
		pl.SwitchPart[nTors+a] = a / c.AggsPerPod
	}
	for co := 0; co < c.Cores; co++ {
		pl.SwitchPart[nTors+nAggs+co] = co % p
	}
	return pl
}

// Partitions returns the leaf-spine fabric's plan: one partition per
// leaf with all its hosts, and spine s on partition s mod Leaves.
// Host–leaf links never cross a boundary; the cuts are exactly the
// leaf–spine links whose endpoints differ, each with lookahead 1 µs of
// propagation plus the minimum serialization time at that spine's link
// rate.
func (c LeafSpineConfig) Partitions() *Plan {
	c.fillDefaults()
	p := c.Leaves
	pl := &Plan{
		Parts:      p,
		Workers:    1,
		HostPart:   make([]int, c.Leaves*c.ServersPerLeaf),
		SwitchPart: make([]int, c.Leaves+c.Spines),
	}
	for l := 0; l < c.Leaves; l++ {
		pl.SwitchPart[l] = l
		for s := 0; s < c.ServersPerLeaf; s++ {
			pl.HostPart[l*c.ServersPerLeaf+s] = l
		}
	}
	for sp := 0; sp < c.Spines; sp++ {
		pl.SwitchPart[c.Leaves+sp] = sp % p
	}
	return pl
}
