package topo

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/units"
)

// Every host and switch of a fat-tree plan lands in exactly one valid
// partition, hosts follow their ToR, ToRs and aggs follow their pod —
// one partition per pod — cores are dealt round the pods, and the built
// fabric's sync edges are exactly the ordered partition pairs an
// agg–core link joins (the fabric wires every agg to every core), each
// at that link's delay plus a bare header's serialization. At the
// benchmark's 10,240-host shape (16 pods of 16 ToRs and 8 aggs, 16
// cores, 40 servers a ToR) the 3,840 directed agg–core cuts join 240
// ordered pod pairs: 240 edges and 240 mailboxes, not one of each a cut.
func TestFatTreePartitions(t *testing.T) {
	hosts := TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond})
	for _, c := range []struct {
		cfg   FatTreeConfig
		edges int
	}{
		{FatTreeConfig{}, 10},
		{FatTreeConfig{Pods: 3, Cores: 5, ServersPerTor: 2}, 6},
		{FatTreeConfig{Pods: 1, ServersPerTor: 2}, 0},
		{FatTreeConfig{Pods: 16, TorsPerPod: 16, AggsPerPod: 8, Cores: 16, ServersPerTor: 40}, 240},
	} {
		cfg := c.cfg.WithDefaults()
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
		// Reconstruct the expected edges from the physical adjacency:
		// every agg wires to every core.
		want := map[[2]int]sim.Duration{}
		for a := 0; a < nAggs; a++ {
			for co := 0; co < cfg.Cores; co++ {
				pa, pc := pl.SwitchPart[nTors+a], pl.SwitchPart[nTors+nAggs+co]
				if pa != pc {
					want[[2]int{pa, pc}] = coreDelay + cfg.FabricRate.TxTime(48)
					want[[2]int{pc, pa}] = coreDelay + cfg.FabricRate.TxTime(48)
				}
			}
		}
		if len(want) != c.edges {
			t.Fatalf("%d pods: agg–core links join %d ordered pod pairs, want %d", p, len(want), c.edges)
		}
		cfg.Opts.Hosts, cfg.Opts.Partition = hosts, pl
		n := FatTree(cfg)
		checkEdges(t, fmt.Sprintf("%d pods", p), n, want)
	}
}

// checkEdges fails unless n's sync edges are exactly want, and its cut
// ports post into one mailbox an edge.
func checkEdges(t *testing.T, name string, n *Network, want map[[2]int]sim.Duration) {
	t.Helper()
	if got := Edges(n); !maps.Equal(got, want) {
		t.Fatalf("%s: sync edges %v, want %v", name, got, want)
	}
	if got := Mailboxes(n); got != len(want) {
		t.Fatalf("%s: cut ports post into %d mailboxes, want one for each of %d edges", name, got, len(want))
	}
}

// The leaf-spine plan is one partition per leaf with all its hosts and
// deals the spines round the leaves; the built fabric's sync edges are
// exactly the ordered partition pairs a crossing leaf–spine link joins,
// at the least of their links' lookaheads — per spine when SpineRates
// differ.
func TestLeafSpinePartitions(t *testing.T) {
	hosts := TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond})
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
		want := map[[2]int]sim.Duration{}
		for l := 0; l < cfg.Leaves; l++ {
			for sp := 0; sp < cfg.Spines; sp++ {
				leaf, spine := pl.SwitchPart[l], pl.SwitchPart[cfg.Leaves+sp]
				if leaf == spine {
					continue
				}
				look := edgeDelay + cfg.SpineRate(sp).TxTime(48)
				for _, pair := range [][2]int{{leaf, spine}, {spine, leaf}} {
					if old, ok := want[pair]; !ok || look < old {
						want[pair] = look
					}
				}
			}
		}
		cfg.Opts.Hosts, cfg.Opts.Partition = hosts, pl
		n := LeafSpine(cfg)
		checkEdges(t, fmt.Sprintf("%d leaves", p), n, want)
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

// recorder is a wire's far end: it notes the key each packet arrives
// under on the engine it runs on.
type recorder struct {
	eng  *sim.Engine
	keys []sim.Key
}

func (r *recorder) Receive(*packet.Packet) { r.keys = append(r.keys, r.eng.ExecKey()) }

// A port whose wire crosses shards is an ordinary port. On a two-leaf
// leaf-spine's leaf plan, leaf 0's port to spine 1 crosses from shard 0
// to shard 1: a packet sent across it arrives on shard 1's engine under
// the key it has on one engine; a packet in flight when the wire goes
// down is lost at its arrival instant into shard 1's pool; and the
// port's Lost, PayloadLost and PayloadOnWire read as they do on one
// engine — at one worker and at two.
func TestCutPortDeliversLikeLocal(t *testing.T) {
	type outcome struct {
		arrived               []sim.Key
		midWire, endWire      uint64 // PayloadOnWire while the second packet flies, and at the end
		lost, plLost, farPuts uint64
	}
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }
	run := func(workers int) outcome {
		cfg := LeafSpineConfig{Leaves: 2, Spines: 2, ServersPerLeaf: 1}
		cfg.Opts.Hosts = TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond})
		if workers > 0 {
			cfg.Opts.Partition = cfg.Partitions()
			cfg.Opts.Partition.Workers = workers
		}
		n := LeafSpine(cfg)
		pt := n.Switches[cfg.LeafSwitch(0)].Ports()[2] // its host, spine 0, spine 1
		far := n.Part.SwitchPart[cfg.SpineSwitch(1)]
		if crosses := pt.Out != nil; crosses != (workers > 0) || (far == 1) != crosses {
			t.Fatalf("W=%d: leaf 0's port to spine 1 crosses shards: %v, spine 1 on shard %d", workers, crosses, far)
		}
		rec := &recorder{eng: n.Engs[far]}
		pt.Peer = rec
		src := n.Engs[n.Part.SwitchPart[cfg.LeafSwitch(0)]]
		src.SetOrigin(1)
		for _, at := range []sim.Time{0, us(10)} {
			src.At(at, func() {
				p := n.Pools[0].Get()
				p.PayloadLen = 1000
				pt.Send(p)
			})
		}
		var out outcome
		// After the second packet has left the serializer, before it lands.
		n.Eng.SetOrigin(2)
		n.Eng.At(us(10)+sim.Time(500*sim.Nanosecond), func() {
			out.midWire = pt.PayloadOnWire()
			pt.SetDown(true)
		})
		_, _, puts0 := n.Pools[far].Stats()
		_, _, srcPuts0 := n.Pools[0].Stats()
		n.PSim.Run(us(20))
		_, _, puts := n.Pools[far].Stats()
		if _, _, srcPuts := n.Pools[0].Stats(); far != 0 && srcPuts != srcPuts0 {
			t.Fatalf("W=%d: the lost packet went back to the sending shard's pool", workers)
		}
		out.arrived, out.endWire = rec.keys, pt.PayloadOnWire()
		out.lost, out.plLost, out.farPuts = pt.Lost(), pt.PayloadLost(), puts-puts0
		return out
	}

	want := run(0)
	arrival := sim.Time(0).Add(fabricRate.TxTime(packet.HeaderSize+1000) + edgeDelay)
	if len(want.arrived) != 1 || want.arrived[0].At != arrival {
		t.Fatalf("one engine: arrivals %v, want one at %v", want.arrived, arrival)
	}
	if want.midWire != 1000 || want.endWire != 0 || want.lost != 1 || want.plLost != 1000 || want.farPuts != 1 {
		t.Fatalf("one engine: %+v; want 1000 payload bytes on the wire when it goes down, one packet and 1000 bytes lost into the pool, none left on the wire", want)
	}
	for _, workers := range []int{1, 2} {
		got := run(workers)
		if !slices.Equal(got.arrived, want.arrived) {
			t.Fatalf("W=%d: arrivals %v, one engine's %v", workers, got.arrived, want.arrived)
		}
		got.arrived = want.arrived
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("W=%d: %+v, one engine's %+v", workers, got, want)
		}
	}
}
