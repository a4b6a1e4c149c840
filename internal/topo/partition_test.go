package topo

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/units"
)

// Every host and switch of a fat-tree plan lands in exactly one valid
// partition, hosts follow their ToR, ToRs and aggs follow their pod —
// one partition per pod — cores are dealt round the pods, and the cut
// list is exactly the agg–core pairs whose partitions differ (the
// fabric wires every agg to every core).
func TestFatTreePartitions(t *testing.T) {
	for _, cfg := range []FatTreeConfig{{}, {Pods: 3, Cores: 5, ServersPerTor: 2}, {Pods: 1, ServersPerTor: 2}} {
		cfg = cfg.WithDefaults()
		p := cfg.Pods
		nTors := cfg.Pods * cfg.TorsPerPod
		nAggs := cfg.Pods * cfg.AggsPerPod
		pl := cfg.Partitions()
		if pl.Parts != p || pl.Workers != 1 {
			t.Fatalf("%d pods: %d partitions on %d workers, want %d on 1", p, pl.Parts, pl.Workers, p)
		}
		pl.validate(nTors*cfg.ServersPerTor, nTors+nAggs+cfg.Cores)
		for i, part := range pl.HostPart {
			if tor := pl.SwitchPart[i/cfg.ServersPerTor]; part != tor {
				t.Fatalf("%d pods: host %d in partition %d but its ToR in %d", p, i, part, tor)
			}
		}
		for q := 0; q < cfg.Pods; q++ {
			for tr := 0; tr < cfg.TorsPerPod; tr++ {
				if got := pl.SwitchPart[q*cfg.TorsPerPod+tr]; got != q {
					t.Fatalf("%d pods: pod %d ToR %d in partition %d", p, q, tr, got)
				}
			}
			for a := 0; a < cfg.AggsPerPod; a++ {
				if got := pl.SwitchPart[nTors+q*cfg.AggsPerPod+a]; got != q {
					t.Fatalf("%d pods: pod %d agg %d in partition %d", p, q, a, got)
				}
			}
		}
		for co := 0; co < cfg.Cores; co++ {
			if got := pl.SwitchPart[nTors+nAggs+co]; got != co%p {
				t.Fatalf("%d pods: core %d in partition %d, want %d", p, co, got, co%p)
			}
		}
		// Reconstruct the expected cut set from the physical adjacency:
		// every agg wires to every core.
		wantLook := coreDelay + cfg.FabricRate.TxTime(48)
		cuts := map[[2]int]bool{}
		for _, c := range pl.Cuts {
			if c.Lookahead != wantLook {
				t.Fatalf("%d pods: cut %d–%d lookahead %v, want %v", p, c.A, c.B, c.Lookahead, wantLook)
			}
			if cuts[[2]int{c.A, c.B}] {
				t.Fatalf("%d pods: duplicate cut %d–%d", p, c.A, c.B)
			}
			cuts[[2]int{c.A, c.B}] = true
		}
		for a := 0; a < nAggs; a++ {
			for co := 0; co < cfg.Cores; co++ {
				ai, ci := nTors+a, nTors+nAggs+co
				crosses := pl.SwitchPart[ai] != pl.SwitchPart[ci]
				if crosses != cuts[[2]int{ai, ci}] {
					t.Fatalf("%d pods: agg %d – core %d crossing=%v but cut listed=%v",
						p, a, co, crosses, cuts[[2]int{ai, ci}])
				}
			}
		}
	}
}

// The leaf-spine plan is one partition per leaf with all its hosts,
// deals the spines round the leaves, and lists exactly the crossing
// leaf–spine links as cuts — with per-spine lookahead when SpineRates
// are set.
func TestLeafSpinePartitions(t *testing.T) {
	for _, cfg := range []LeafSpineConfig{
		{Leaves: 4, Spines: 3, SpineRates: []units.BitRate{40 * units.Gbps}},
		{Leaves: 2, Spines: 5},
		{Leaves: 1, Spines: 2},
	} {
		cfg.fillDefaults()
		p := cfg.Leaves
		pl := cfg.Partitions()
		if pl.Parts != p || pl.Workers != 1 {
			t.Fatalf("%d leaves: %d partitions on %d workers, want %d on 1", p, pl.Parts, pl.Workers, p)
		}
		pl.validate(cfg.Leaves*cfg.ServersPerLeaf, cfg.Leaves+cfg.Spines)
		for i, part := range pl.HostPart {
			if part != i/cfg.ServersPerLeaf {
				t.Fatalf("%d leaves: host %d in partition %d, not its leaf's", p, i, part)
			}
		}
		for l := 0; l < cfg.Leaves; l++ {
			if pl.SwitchPart[l] != l {
				t.Fatalf("%d leaves: leaf %d in partition %d", p, l, pl.SwitchPart[l])
			}
		}
		for sp := 0; sp < cfg.Spines; sp++ {
			if got := pl.SwitchPart[cfg.Leaves+sp]; got != sp%p {
				t.Fatalf("%d leaves: spine %d in partition %d, want %d", p, sp, got, sp%p)
			}
		}
		cuts := map[[2]int]bool{}
		for _, c := range pl.Cuts {
			want := edgeDelay + cfg.SpineRate(c.B-cfg.Leaves).TxTime(48)
			if c.Lookahead != want {
				t.Fatalf("%d leaves: cut %d–%d lookahead %v, want %v", p, c.A, c.B, c.Lookahead, want)
			}
			cuts[[2]int{c.A, c.B}] = true
		}
		for l := 0; l < cfg.Leaves; l++ {
			for sp := 0; sp < cfg.Spines; sp++ {
				crosses := pl.SwitchPart[l] != pl.SwitchPart[cfg.Leaves+sp]
				if crosses != cuts[[2]int{l, cfg.Leaves + sp}] {
					t.Fatalf("%d leaves: leaf %d – spine %d crossing=%v but cut listed=%v",
						p, l, sp, crosses, cuts[[2]int{l, cfg.Leaves + sp}])
				}
			}
		}
	}
}

// Workers beyond the pods make no partitions beyond them: a 2-pod
// fat-tree asked for 8 workers is still 2 partitions, both occupied,
// built as 2 engines stepped by 2 workers.
func TestPartitionsBeyondPods(t *testing.T) {
	cfg := FatTreeConfig{Pods: 2, TorsPerPod: 1, AggsPerPod: 1, Cores: 2, ServersPerTor: 2}
	pl := cfg.Partitions()
	pl.Workers = 8
	if pl.Parts != 2 {
		t.Fatalf("Parts = %d, want one per pod", pl.Parts)
	}
	used := map[int]bool{}
	for _, p := range pl.SwitchPart {
		used[p] = true
	}
	if len(used) != 2 {
		t.Fatalf("expected 2 occupied partitions, got %d", len(used))
	}
	cfg.Opts.Partition = pl
	cfg.Opts.Hosts = TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond})
	n := FatTree(cfg)
	if len(n.Engs) != 2 || n.PSim.Workers() != 2 {
		t.Fatalf("8 workers over 2 pods: %d engines on %d workers, want 2 on 2", len(n.Engs), n.PSim.Workers())
	}
}

// A builder runs partition i on the recycled engine it is lent for it and
// makes the rest. The shard count is the plan's and the worker count the
// caller's, but never more workers than shards: a 4-pod fat-tree is 4
// engines on min(W, 4) workers, a 3-leaf leaf-spine 3 engines. With no
// plan a fabric is one shard on the control engine, lent engines unused.
func TestShardEnginesAndWorkers(t *testing.T) {
	hosts := TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond})
	lent := []*sim.Engine{sim.New(), sim.New()}
	for _, w := range []int{1, 2, 8, 4096} {
		cfg := FatTreeConfig{ServersPerTor: 2}
		cfg.Opts.Hosts, cfg.Opts.ShardEngines = hosts, lent
		cfg.Opts.Partition = cfg.Partitions()
		cfg.Opts.Partition.Workers = w
		n := FatTree(cfg)
		if len(n.Engs) != 4 || n.Engs[0] != lent[0] || n.Engs[1] != lent[1] {
			t.Fatalf("W=%d: %d engines, partitions 0 and 1 not on the lent ones", w, len(n.Engs))
		}
		if n.Engs[2] == nil || n.Engs[3] == nil || n.Engs[2] == n.Engs[3] || n.Engs[2] == n.Eng {
			t.Fatalf("W=%d: partitions 2 and 3 did not get fresh engines of their own", w)
		}
		if got := n.PSim.Workers(); got != min(w, 4) {
			t.Fatalf("a 4-pod plan asked for %d workers runs on %d, want %d", w, got, min(w, 4))
		}
		if n.HostEngine(0) != lent[0] {
			t.Fatalf("W=%d: host 0 is not on partition 0's engine", w)
		}
	}

	ls := LeafSpineConfig{Leaves: 3, ServersPerLeaf: 2}
	ls.Opts.Hosts = hosts
	ls.Opts.Partition = ls.Partitions()
	ls.Opts.Partition.Workers = 2
	if n := LeafSpine(ls); len(n.Engs) != 3 || n.PSim.Workers() != 2 {
		t.Fatalf("a 3-leaf leaf-spine on 2 workers: %d engines on %d workers", len(n.Engs), n.PSim.Workers())
	}

	one := FatTreeConfig{ServersPerTor: 2}
	one.Opts.Hosts, one.Opts.ShardEngines = hosts, lent
	n := FatTree(one)
	if len(n.Engs) != 1 || n.Engs[0] != n.Eng || len(n.Pools) != 1 || n.Pools[0] != n.Pool || n.PSim.Workers() != 1 {
		t.Fatalf("no plan: %d engines (the control engine's: %v) and %d pools on %d workers, want one shard on the control engine",
			len(n.Engs), n.Engs[0] == n.Eng, len(n.Pools), n.PSim.Workers())
	}
}
