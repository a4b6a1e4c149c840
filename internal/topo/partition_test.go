package topo

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/units"
)

// Every host and switch of a fat-tree plan lands in exactly one valid
// partition, hosts follow their ToR, ToRs and aggs follow their pod,
// and the cut list is exactly the agg–core pairs whose partitions
// differ (the fabric wires every agg to every core).
func TestFatTreePartitions(t *testing.T) {
	cfg := FatTreeConfig{}.WithDefaults()
	nTors := cfg.Pods * cfg.TorsPerPod
	nAggs := cfg.Pods * cfg.AggsPerPod
	for _, p := range []int{1, 2, 3, 4, 8} {
		pl := cfg.Partitions(p)
		if pl.Parts != p {
			t.Fatalf("p=%d: Parts = %d", p, pl.Parts)
		}
		if len(pl.HostPart) != nTors*cfg.ServersPerTor {
			t.Fatalf("p=%d: %d host assignments, want %d", p, len(pl.HostPart), nTors*cfg.ServersPerTor)
		}
		if len(pl.SwitchPart) != nTors+nAggs+cfg.Cores {
			t.Fatalf("p=%d: %d switch assignments, want %d", p, len(pl.SwitchPart), nTors+nAggs+cfg.Cores)
		}
		for i, part := range pl.HostPart {
			if part < 0 || part >= p {
				t.Fatalf("p=%d: host %d in partition %d", p, i, part)
			}
			if tor := pl.SwitchPart[i/cfg.ServersPerTor]; part != tor {
				t.Fatalf("p=%d: host %d in partition %d but its ToR in %d", p, i, part, tor)
			}
		}
		for q := 0; q < cfg.Pods; q++ {
			want := q % p
			for tr := 0; tr < cfg.TorsPerPod; tr++ {
				if got := pl.SwitchPart[q*cfg.TorsPerPod+tr]; got != want {
					t.Fatalf("p=%d: pod %d ToR %d in partition %d, want %d", p, q, tr, got, want)
				}
			}
			for a := 0; a < cfg.AggsPerPod; a++ {
				if got := pl.SwitchPart[nTors+q*cfg.AggsPerPod+a]; got != want {
					t.Fatalf("p=%d: pod %d agg %d in partition %d, want %d", p, q, a, got, want)
				}
			}
		}
		// Reconstruct the expected cut set from the physical adjacency:
		// every agg wires to every core.
		wantLook := cfg.CoreDelay + cfg.FabricRate.TxTime(48)
		cuts := map[[2]int]bool{}
		for _, c := range pl.Cuts {
			if pl.SwitchPart[c.A] == pl.SwitchPart[c.B] {
				t.Fatalf("p=%d: cut %d–%d does not cross partitions", p, c.A, c.B)
			}
			if c.Lookahead != wantLook {
				t.Fatalf("p=%d: cut %d–%d lookahead %v, want %v", p, c.A, c.B, c.Lookahead, wantLook)
			}
			if cuts[[2]int{c.A, c.B}] {
				t.Fatalf("p=%d: duplicate cut %d–%d", p, c.A, c.B)
			}
			cuts[[2]int{c.A, c.B}] = true
		}
		for a := 0; a < nAggs; a++ {
			for co := 0; co < cfg.Cores; co++ {
				ai, ci := nTors+a, nTors+nAggs+co
				crosses := pl.SwitchPart[ai] != pl.SwitchPart[ci]
				if crosses != cuts[[2]int{ai, ci}] {
					t.Fatalf("p=%d: agg %d – core %d crossing=%v but cut listed=%v",
						p, a, co, crosses, cuts[[2]int{ai, ci}])
				}
			}
		}
	}
}

// The leaf-spine plan keeps every host with its leaf, assigns leaves
// and spines round-robin, and lists exactly the crossing leaf–spine
// links as cuts — with per-spine lookahead when SpineRates are set.
func TestLeafSpinePartitions(t *testing.T) {
	cfg := LeafSpineConfig{
		Leaves: 4, Spines: 3,
		SpineRates: []units.BitRate{40 * units.Gbps},
	}
	cfg.fillDefaults()
	for _, p := range []int{1, 2, 3, 4, 8} {
		pl := cfg.Partitions(p)
		if len(pl.HostPart) != cfg.Leaves*cfg.ServersPerLeaf {
			t.Fatalf("p=%d: %d host assignments", p, len(pl.HostPart))
		}
		if len(pl.SwitchPart) != cfg.Leaves+cfg.Spines {
			t.Fatalf("p=%d: %d switch assignments", p, len(pl.SwitchPart))
		}
		for i, part := range pl.HostPart {
			if part != pl.SwitchPart[i/cfg.ServersPerLeaf] {
				t.Fatalf("p=%d: host %d not co-partitioned with its leaf", p, i)
			}
		}
		for l := 0; l < cfg.Leaves; l++ {
			if pl.SwitchPart[l] != l%p {
				t.Fatalf("p=%d: leaf %d in partition %d", p, l, pl.SwitchPart[l])
			}
		}
		cuts := map[[2]int]bool{}
		for _, c := range pl.Cuts {
			want := cfg.LinkDelay + cfg.SpineRate(c.B-cfg.Leaves).TxTime(48)
			if c.Lookahead != want {
				t.Fatalf("p=%d: cut %d–%d lookahead %v, want %v", p, c.A, c.B, c.Lookahead, want)
			}
			cuts[[2]int{c.A, c.B}] = true
		}
		for l := 0; l < cfg.Leaves; l++ {
			for sp := 0; sp < cfg.Spines; sp++ {
				crosses := pl.SwitchPart[l] != pl.SwitchPart[cfg.Leaves+sp]
				if crosses != cuts[[2]int{l, cfg.Leaves + sp}] {
					t.Fatalf("p=%d: leaf %d – spine %d crossing=%v but cut listed=%v",
						p, l, sp, crosses, cuts[[2]int{l, cfg.Leaves + sp}])
				}
			}
		}
	}
}

// A plan with more partitions than pods leaves the extras empty and
// still builds a working network.
func TestPartitionsBeyondPods(t *testing.T) {
	cfg := FatTreeConfig{Pods: 2, TorsPerPod: 1, AggsPerPod: 1, Cores: 2, ServersPerTor: 2}
	pl := cfg.Partitions(8)
	if pl.Parts != 8 {
		t.Fatalf("Parts = %d", pl.Parts)
	}
	used := map[int]bool{}
	for _, p := range pl.SwitchPart {
		used[p] = true
	}
	if len(used) != 2 {
		t.Fatalf("expected 2 occupied partitions, got %d", len(used))
	}
	cfg.Parts = 8
	cfg.Opts.Hosts = TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond})
	n := FatTree(cfg)
	if n.PSim == nil || len(n.Engs) != 8 {
		t.Fatalf("partitioned build: PSim=%v engines=%d", n.PSim != nil, len(n.Engs))
	}
}

// A builder runs partition i on the recycled engine it is lent for it and
// makes the rest, and a plan's workers are its partitions' unless it says
// otherwise.
func TestShardEnginesAndWorkers(t *testing.T) {
	lent := []*sim.Engine{sim.New(), sim.New()}
	cfg := FatTreeConfig{ServersPerTor: 2, Parts: 4}
	cfg.Opts.Hosts = TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond})
	cfg.Opts.ShardEngines = lent
	n := FatTree(cfg)
	if len(n.Engs) != 4 || n.Engs[0] != lent[0] || n.Engs[1] != lent[1] {
		t.Fatalf("partitions 0 and 1 do not run on the lent engines")
	}
	if n.Engs[2] == nil || n.Engs[3] == nil || n.Engs[2] == n.Engs[3] || n.Engs[2] == n.Eng {
		t.Fatalf("partitions 2 and 3 did not get fresh engines of their own")
	}
	if w := n.PSim.Workers(); w != 4 {
		t.Fatalf("a plan that names no worker count runs on %d workers, want one a partition", w)
	}
	if n.HostEngine(0) != lent[0] {
		t.Fatalf("host 0 is not on partition 0's engine")
	}

	plan := cfg.Partitions(4)
	plan.Workers = 1
	cfg.Parts, cfg.Opts.Partition, cfg.Opts.ShardEngines = 0, plan, nil
	if w := FatTree(cfg).PSim.Workers(); w != 1 {
		t.Fatalf("a one-worker plan runs on %d workers", w)
	}
}
