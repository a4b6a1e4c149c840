package route

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// The per-edge-vs-per-host equivalence property: on a fat-tree, a
// leaf-spine with unequal spine rates and random connected graphs
// (parallel links, host ports interleaved with switch ports, switches
// with no hosts), under every registered strategy, the Router's tables
// must equal the retired per-host rebuild's (referenceRouter) for every
// (switch, destination) — content and order — after the initial build
// and after each reconvergence of a seeded random fail/restore script.
// Scripts batch several link changes between rebuilds and isolate a
// whole switch, so the stale entries a partition leaves behind are
// compared too.
func TestRebuildMatchesPerHostReference(t *testing.T) {
	strategies := []Strategy{SinglePath{}, ECMP{}, WeightedECMP{}, WeightedECMP{MaxReplicas: 3}}
	graphs := []struct {
		name  string
		build func(*graphBuilder)
	}{
		{"fattree", buildFatTree},
		{"leafspine", buildLeafSpine},
	}
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		graphs = append(graphs, struct {
			name  string
			build func(*graphBuilder)
		}{fmt.Sprintf("random%d", seed), func(b *graphBuilder) { buildRandom(b, seed) }})
	}
	for _, g := range graphs {
		for _, s := range strategies {
			g, s := g, s
			t.Run(fmt.Sprintf("%s/%s%d", g.name, s.Name(), maxReplicasOf(s)), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					runEquivalenceScript(t, g.build, s, seed)
				}
			})
		}
	}
}

func maxReplicasOf(s Strategy) int {
	if w, ok := s.(WeightedECMP); ok {
		return w.MaxReplicas
	}
	return 0
}

func runEquivalenceScript(t *testing.T, build func(*graphBuilder), strategy Strategy, seed int64) {
	t.Helper()
	eng := sim.New()
	b := &graphBuilder{eng: eng}
	build(b)
	stubs := make([]*tableStub, len(b.g))
	for i := range stubs {
		stubs[i] = newTableStub()
	}
	r := NewRouter(eng, b.g, installers(stubs), strategy)
	ref := newReferenceRouter(b.g, strategy)

	stale := 0
	compare := func(when string) {
		t.Helper()
		for si := range b.g {
			for _, dst := range ref.hostIDs {
				got, want := stubs[si].route(dst), ref.tables[si][dst]
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, %s: switch %d → %d: router %v, reference %v", seed, when, si, dst, got, want)
				}
				if len(got) > 0 && !slices.ContainsFunc(got, func(p int) bool { return !b.g[si][p].Link.IsDown() }) {
					stale++
				}
			}
		}
	}
	set := func(pair [2]int, down bool) {
		if down {
			r.FailLink(pair[0], pair[1])
		} else {
			r.RestoreLink(pair[0], pair[1])
		}
		ref.setLink(pair[0], pair[1], down)
	}
	rebuild := func(when string) {
		r.Rebuild()
		ref.rebuild()
		compare(when)
	}
	compare("initial build")

	rng := rand.New(rand.NewSource(seed))
	down := map[[2]int]bool{}
	for step := 0; step < 40; step++ {
		pair := b.links[rng.Intn(len(b.links))]
		down[pair] = !down[pair]
		set(pair, down[pair])
		if rng.Intn(3) > 0 {
			rebuild(fmt.Sprintf("step %d", step))
		}
	}
	rebuild("end of script")
	if want := len(ref.down); r.DownLinks() != want {
		t.Fatalf("seed %d: DownLinks() = %d, reference has %d cut", seed, r.DownLinks(), want)
	}

	// Isolate one switch: everything it knew goes stale, and everything
	// behind it goes stale everywhere else.
	victim := rng.Intn(len(b.g))
	for _, pair := range b.links {
		if pair[0] == victim || pair[1] == victim {
			set(pair, true)
		}
	}
	before := stale
	rebuild(fmt.Sprintf("switch %d isolated", victim))
	if stale == before {
		t.Fatalf("seed %d: isolating switch %d left no stale entry — the partition path went untested", seed, victim)
	}
	for _, pair := range b.links {
		set(pair, false)
	}
	rebuild("all links restored")
}

// graphBuilder wires routing graphs by hand (topo imports this package)
// and records the distinct switch pairs a failure script can cut.
type graphBuilder struct {
	eng   *sim.Engine
	g     [][]PortRef
	links [][2]int
	hosts int
}

func (b *graphBuilder) switches(n int) (first int) {
	first = len(b.g)
	b.g = append(b.g, make([][]PortRef, n)...)
	return first
}

// host attaches a new host to switch si. Node IDs are sparse and differ
// from host indexes, so nothing can lean on their being equal.
func (b *graphBuilder) host(si int) {
	pt := link.NewPort(b.eng, 25*units.Gbps, 0, nil)
	b.g[si] = append(b.g[si], PortRef{Link: pt, ToHost: true, Host: b.hosts, HostID: packet.NodeID(1000 + 7*b.hosts)})
	b.hosts++
}

func (b *graphBuilder) link(x, y int, rate units.BitRate) {
	b.g[x] = append(b.g[x], PortRef{Link: link.NewPort(b.eng, rate, 0, nil), Peer: y})
	b.g[y] = append(b.g[y], PortRef{Link: link.NewPort(b.eng, rate, 0, nil), Peer: x})
	if pair := refLinkKey(x, y); !slices.Contains(b.links, pair) {
		b.links = append(b.links, pair)
	}
}

// buildFatTree wires 4 pods × (2 ToRs + 2 aggs) under 4 cores, 3 hosts a
// ToR: agg j of every pod reaches cores 2j and 2j+1.
func buildFatTree(b *graphBuilder) {
	const pods, tors, aggs, perAgg, servers = 4, 2, 2, 2, 3
	core := b.switches(aggs * perAgg)
	for p := 0; p < pods; p++ {
		tor, agg := b.switches(tors), b.switches(aggs)
		for i := 0; i < tors; i++ {
			for s := 0; s < servers; s++ {
				b.host(tor + i)
			}
			for j := 0; j < aggs; j++ {
				b.link(tor+i, agg+j, 100*units.Gbps)
			}
		}
		for j := 0; j < aggs; j++ {
			for c := 0; c < perAgg; c++ {
				b.link(agg+j, core+j*perAgg+c, 100*units.Gbps)
			}
		}
	}
}

// buildLeafSpine wires 4 leaves × 3 spines whose leaf links run at
// 100/50/25 Gbps, so weighted tables replicate ports unevenly.
func buildLeafSpine(b *graphBuilder) {
	rates := []units.BitRate{100 * units.Gbps, 50 * units.Gbps, 25 * units.Gbps}
	leaf, spine := b.switches(4), b.switches(len(rates))
	for l := 0; l < 4; l++ {
		b.host(leaf + l)
		b.host(leaf + l)
		for sp, rate := range rates {
			b.link(leaf+l, spine+sp, rate)
		}
	}
}

// buildRandom wires a random connected graph: a random spanning tree
// plus extra links (some parallel to existing ones, some at odd rates),
// with 0–3 hosts a switch attached before and after its switch ports.
func buildRandom(b *graphBuilder, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rates := []units.BitRate{25 * units.Gbps, 40 * units.Gbps, 100 * units.Gbps}
	n := 5 + rng.Intn(8)
	b.switches(n)
	b.host(0)
	for si := 1; si < n; si++ {
		if rng.Intn(2) == 0 {
			b.host(si)
		}
	}
	for si := 1; si < n; si++ {
		b.link(si, rng.Intn(si), rates[rng.Intn(len(rates))])
	}
	for extra := rng.Intn(2 * n); extra > 0; extra-- {
		if x, y := rng.Intn(n), rng.Intn(n); x != y {
			b.link(x, y, rates[rng.Intn(len(rates))])
		}
	}
	b.host(n - 1)
	for si := 0; si < n; si++ {
		for k := rng.Intn(3); k > 0; k-- {
			b.host(si)
		}
	}
}
