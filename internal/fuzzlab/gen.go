package fuzzlab

import (
	"math/rand"

	"repro/internal/scenario"
)

// BaseSchemes is the pool the generator draws base schemes from — every
// scheme that runs on switched topologies.
var BaseSchemes = []string{
	"powertcp", "hpcc", "dctcp", "timely", "reno", "dcqcn", "homa",
}

// overrideSchemes are the per-component overrides safe on any
// window-transport base: they need no INT and no ECN marking, so
// resolveOverride accepts them regardless of the fabric the base scheme
// built. HOMA bases take no overrides at all.
var overrideSchemes = []string{"reno", "timely"}

// fabricInfo mirrors the geometry the generated topology will resolve
// to, so component generation can respect selector bounds without
// building the network.
type fabricInfo struct {
	hosts, racks, perRack int
}

func (f fabricInfo) multiRack() bool { return f.racks > 1 }

// Generate derives a well-formed Spec from a seed: every spec it
// returns must Build and Run cleanly — the invariant checker treats a
// Run error on a generated spec as a generator bug, not a finding. All
// randomness flows from the one seeded source, so the mapping is a pure
// function of seed.
func Generate(seed int64) scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	sp := scenario.Spec{Seed: seed}
	sp.Scheme = BaseSchemes[rng.Intn(len(BaseSchemes))]
	sp.HorizonUS = 150 + rng.Int63n(451)

	var f fabricInfo
	switch roll := rng.Float64(); {
	case roll < 0.25:
		hosts := 3 + rng.Intn(6)
		sp.Topo = scenario.TopoSpec{Kind: "star", Hosts: hosts}
		f = fabricInfo{hosts: hosts, racks: 1, perRack: hosts}
	case roll < 0.70:
		leaves := 2 + rng.Intn(2)
		spines := 2 + rng.Intn(2)
		spl := 2 + rng.Intn(2)
		sp.Topo = scenario.TopoSpec{Kind: "leafspine", Leaves: leaves, Spines: spines, ServersPerLeaf: spl}
		f = fabricInfo{hosts: leaves * spl, racks: leaves, perRack: spl}
	default:
		// The default 4-pod fat-tree has 8 ToRs; only the rack width varies.
		spt := 1 + rng.Intn(2)
		sp.Topo = scenario.TopoSpec{Kind: "fattree", ServersPerTor: spt}
		f = fabricInfo{hosts: 8 * spt, racks: 8, perRack: spt}
	}
	if f.multiRack() && rng.Float64() < 0.2 {
		sp.Topo.Routing = []string{"ecmp", "wecmp"}[rng.Intn(2)]
	}

	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		tr := genComponent(rng, f, sp.HorizonUS)
		if sp.Scheme != "homa" && rng.Float64() < 0.2 {
			tr.Override = overrideSchemes[rng.Intn(len(overrideSchemes))]
		}
		sp.Traffic = append(sp.Traffic, tr)
	}

	// Hybrid co-simulation: with modest probability, promote one eligible
	// component to fluid fidelity. The roll happens before the event
	// block because fluid fidelity excludes link-failure timelines (fluid
	// demand is routed once, before the run) — the generator must respect
	// the same domain rule Run validates, or every fluid spec would be a
	// Build error instead of a checked scenario.
	hasFluid := false
	if rng.Float64() < 0.3 {
		var elig []int
		for i, tr := range sp.Traffic {
			switch tr.Kind {
			case "flows", "poisson", "permutation", "rackpairs":
				elig = append(elig, i)
			}
		}
		if len(elig) > 0 {
			sp.Traffic[elig[rng.Intn(len(elig))]].Fidelity = "fluid"
			hasFluid = true
		}
	}

	// Mid-run events only make sense on fabrics with path redundancy:
	// every generated leaf-spine has ≥2 spines and every fat-tree ToR has
	// 2 aggs, so a single cut degrades without disconnecting.
	if f.multiRack() && !hasFluid && rng.Float64() < 0.5 {
		h := sp.HorizonUS
		failAt := h/5 + rng.Int63n(h/2-h/5+1)
		var a, b scenario.SwitchRef
		if sp.Topo.Kind == "leafspine" {
			a = scenario.Leaf(rng.Intn(sp.Topo.Leaves))
			b = scenario.Spine(rng.Intn(sp.Topo.Spines))
		} else {
			// A ToR wires to both aggs of its own pod (2 ToRs and 2 aggs per
			// pod), so pick the cut among links that exist.
			t := rng.Intn(8)
			a = scenario.Tor(t)
			b = scenario.Agg((t/2)*2 + rng.Intn(2))
		}
		sp.Events = append(sp.Events, scenario.EventSpec{Kind: "fail", AtUS: failAt, A: &a, B: &b})
		if rng.Float64() < 0.5 {
			sp.Events = append(sp.Events, scenario.EventSpec{
				Kind: "restore", AtUS: failAt + (h-failAt)/2, A: &a, B: &b,
			})
		}
		sp.ReconvergeUS = 10 + rng.Int63n(41)
	}
	if rng.Float64() < 0.3 {
		inj := genComponent(rng, f, sp.HorizonUS)
		sp.Events = append(sp.Events, scenario.EventSpec{
			Kind: "inject", AtUS: sp.HorizonUS/4 + rng.Int63n(sp.HorizonUS/4+1), Inject: &inj,
		})
	}
	return sp
}

// genComponent rolls one traffic component valid on the fabric. Every
// selector it emits stays in bounds by construction.
func genComponent(rng *rand.Rand, f fabricInfo, horizonUS int64) scenario.TrafficSpec {
	kinds := []string{"flows", "pulse", "staggered", "permutation"}
	if f.multiRack() {
		kinds = append(kinds, "poisson", "requests", "rackpairs")
	}
	switch kinds[rng.Intn(len(kinds))] {
	case "flows":
		cnt := 1 + rng.Intn(3)
		var list []scenario.FlowEntry
		for i := 0; i < cnt; i++ {
			src := rng.Intn(f.hosts)
			dst := rng.Intn(f.hosts - 1)
			if dst >= src {
				dst++
			}
			size := int64(2000 + rng.Int63n(98001))
			if rng.Float64() < 0.1 {
				size = -1 // Unbounded
			}
			list = append(list, scenario.FlowEntry{
				StartUS: rng.Int63n(horizonUS/3 + 1),
				Src:     &scenario.HostRef{Kind: "host", I: src},
				Dst:     &scenario.HostRef{Kind: "host", I: dst},
				Size:    size,
			})
		}
		return scenario.TrafficSpec{Kind: "flows", Flows: list}
	case "pulse":
		tr := scenario.TrafficSpec{
			Kind:     "pulse",
			AtUS:     rng.Int63n(horizonUS/4 + 1),
			Receiver: &scenario.HostRef{Kind: "host", I: 0},
			FanIn:    2 + rng.Intn(5),
			FlowSize: 5000 + rng.Int63n(75001),
		}
		if !f.multiRack() {
			// On a star the zero span would exclude the receiver's rack —
			// which is every host — so name the sender pool explicitly.
			tr.SpanFrom = &scenario.HostRef{Kind: "host", I: 1}
		}
		return tr
	case "staggered":
		maxCount := f.hosts - 1
		if maxCount > 4 {
			maxCount = 4
		}
		cnt := 1 + rng.Intn(maxCount)
		sizes := []int64{10_000 + rng.Int63n(40_001)}
		if rng.Float64() < 0.5 {
			sizes = append(sizes, 10_000+rng.Int63n(40_001))
		}
		return scenario.TrafficSpec{
			Kind:        "staggered",
			Receiver:    &scenario.HostRef{Kind: "host", I: 0},
			FirstSender: &scenario.HostRef{Kind: "host", I: 1},
			Count:       cnt,
			StaggerUS:   5 + rng.Int63n(16),
			Sizes:       sizes,
		}
	case "poisson":
		return scenario.TrafficSpec{
			Kind:         "poisson",
			Load:         0.2 + 0.6*rng.Float64(),
			GenHorizonUS: horizonUS,
			SeedOffset:   rng.Int63n(1000),
		}
	case "requests":
		fanIn := 2 + rng.Intn(3)
		if pool := f.hosts - f.perRack; fanIn > pool {
			fanIn = pool
		}
		// Aim for 1–5 expected requests inside the generation horizon.
		expected := float64(1 + rng.Intn(5))
		return scenario.TrafficSpec{
			Kind:         "requests",
			RequestRate:  expected / (float64(horizonUS) * 1e-6),
			RequestSize:  20_000 + rng.Int63n(80_001),
			FanIn:        fanIn,
			GenHorizonUS: horizonUS,
			SeedOffset:   rng.Int63n(1000),
		}
	case "rackpairs":
		from := rng.Intn(f.racks)
		to := rng.Intn(f.racks - 1)
		if to >= from {
			to++
		}
		var size int64 // zero means endless pairs
		if rng.Float64() < 0.5 {
			size = 20_000 + rng.Int63n(80_001)
		}
		return scenario.TrafficSpec{
			Kind:     "rackpairs",
			FromRack: &scenario.HostRef{Kind: "rack_start", Rack: from},
			ToRack:   &scenario.HostRef{Kind: "rack_start", Rack: to},
			Count:    1 + rng.Intn(f.perRack),
			Size:     size,
		}
	default: // permutation
		return scenario.TrafficSpec{Kind: "permutation", SeedOffset: rng.Int63n(1000)}
	}
}
