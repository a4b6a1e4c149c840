package topo

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// Cut is one switch-switch link crossing a partition boundary. A and B
// are switch indices; Lookahead is the minimum latency of any packet
// crossing the link in either direction — propagation delay plus the
// serialization time of the smallest possible wire frame (a bare
// header) at the link rate. It lower-bounds how far ahead of the
// sender's clock a crossing delivery can land, which is exactly the
// conservative-sync window internal/psim needs.
type Cut struct {
	A, B      int
	Lookahead sim.Duration
}

// Plan assigns every host and switch of a topology to one of Parts
// partitions and lists every cut link. Builders consume it (via
// Options.Partition) to place each entity on its partition's engine and
// packet pool and to wire cut links through mailboxes; see
// FatTreeConfig.Partitions and LeafSpineConfig.Partitions for the
// topology-natural assignment rules.
type Plan struct {
	Parts int
	// Workers is how many goroutines step the partitions (internal/psim):
	// partition i belongs to worker i mod Workers, and one worker means the
	// goroutine that drives the run, with none started. 0 gives every
	// partition a worker of its own.
	Workers    int
	HostPart   []int
	SwitchPart []int
	Cuts       []Cut
}

// validate panics on an internally inconsistent plan — a partition
// index out of range or a cut that does not cross partitions. Builders
// call it so a hand-written plan fails at construction, not as a
// determinism divergence later.
func (pl *Plan) validate() {
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
	for _, c := range pl.Cuts {
		if pl.SwitchPart[c.A] == pl.SwitchPart[c.B] {
			panic(fmt.Sprintf("topo: cut %d–%d does not cross partitions", c.A, c.B))
		}
		if c.Lookahead <= 0 {
			panic(fmt.Sprintf("topo: cut %d–%d has non-positive lookahead", c.A, c.B))
		}
	}
}

// minWireTx returns the serialization time of the smallest frame any
// packet can occupy on the wire (a bare header — pure ACKs, grants and
// CNPs are exactly this size).
func minWireTx(rate units.BitRate) sim.Duration {
	return rate.TxTime(packet.HeaderSize)
}

// Partitions returns the pod-aligned partition plan for a fat-tree: pod
// q goes to partition q mod p (its ToRs, aggregation switches and all
// their hosts follow), and core c to partition c mod p. Intra-pod links
// (host–ToR, ToR–agg) therefore never cross a boundary; the only cuts
// are agg–core links whose endpoints landed on different partitions,
// and every one of them carries CoreDelay of propagation — the longest
// wires in the fabric make the natural cut, maximizing the
// conservative-sync window. p is clamped to at least 1; partitions
// beyond the pod/core count simply stay empty.
func (c FatTreeConfig) Partitions(p int) *Plan {
	c.fillDefaults()
	if p < 1 {
		p = 1
	}
	nTors := c.Pods * c.TorsPerPod
	nAggs := c.Pods * c.AggsPerPod
	pl := &Plan{
		Parts:      p,
		HostPart:   make([]int, nTors*c.ServersPerTor),
		SwitchPart: make([]int, nTors+nAggs+c.Cores),
	}
	for t := 0; t < nTors; t++ {
		part := (t / c.TorsPerPod) % p
		pl.SwitchPart[t] = part
		for s := 0; s < c.ServersPerTor; s++ {
			pl.HostPart[t*c.ServersPerTor+s] = part
		}
	}
	for a := 0; a < nAggs; a++ {
		pl.SwitchPart[nTors+a] = (a / c.AggsPerPod) % p
	}
	look := c.CoreDelay + minWireTx(c.FabricRate)
	for co := 0; co < c.Cores; co++ {
		part := co % p
		pl.SwitchPart[nTors+nAggs+co] = part
		for a := 0; a < nAggs; a++ {
			if pl.SwitchPart[nTors+a] != part {
				pl.Cuts = append(pl.Cuts, Cut{A: nTors + a, B: nTors + nAggs + co, Lookahead: look})
			}
		}
	}
	pl.validate()
	return pl
}

// Partitions returns the rack-aligned partition plan for a leaf-spine
// fabric: leaf l goes to partition l mod p with all its hosts, spine s
// to partition s mod p. Host–leaf links never cross a boundary; the
// cuts are exactly the leaf–spine links whose endpoints differ, each
// with lookahead LinkDelay plus the minimum serialization time at that
// spine's effective link rate.
func (c LeafSpineConfig) Partitions(p int) *Plan {
	c.fillDefaults()
	if p < 1 {
		p = 1
	}
	pl := &Plan{
		Parts:      p,
		HostPart:   make([]int, c.Leaves*c.ServersPerLeaf),
		SwitchPart: make([]int, c.Leaves+c.Spines),
	}
	for l := 0; l < c.Leaves; l++ {
		part := l % p
		pl.SwitchPart[l] = part
		for s := 0; s < c.ServersPerLeaf; s++ {
			pl.HostPart[l*c.ServersPerLeaf+s] = part
		}
	}
	for sp := 0; sp < c.Spines; sp++ {
		part := sp % p
		pl.SwitchPart[c.Leaves+sp] = part
		look := c.LinkDelay + minWireTx(c.SpineRate(sp))
		for l := 0; l < c.Leaves; l++ {
			if pl.SwitchPart[l] != part {
				pl.Cuts = append(pl.Cuts, Cut{A: l, B: c.Leaves + sp, Lookahead: look})
			}
		}
	}
	pl.validate()
	return pl
}
