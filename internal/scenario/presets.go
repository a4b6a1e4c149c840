package scenario

// SpecPresets returns one small, fully specified Spec per experiment
// family of the evaluation (internal/exp's seven presets: asymmetry,
// failover, fairness, incast, permutation, rdcn, websearch; and
// load-sweep, Fig. 7a/7b's family, which internal/exp runs as a suite
// of websearch cells) plus the hybrid co-simulation preset (fluid
// background under packet foreground), sorted by name. They serve three masters:
//
//   - The canonical-encoding golden test pins each preset's canonical
//     bytes and SpecKey, so the cache-key encoding cannot drift
//     silently — any byte-level change to the wire form fails the pin
//     and forces a SpecVersion bump decision.
//   - powersimd's benchmarks and smoke tests submit them as a
//     realistic repeated figure workload.
//   - They are copy-paste request bodies for the README quickstart.
//
// The presets are figure-shaped miniatures, not the figure configs
// themselves: topologies are scaled down so a preset runs in
// milliseconds. The rdcn preset approximates the rotor experiment with
// its nearest packet-switched equivalent (an all-to-all permutation on
// a leaf-spine), because the reconfigurable-topology vocabulary is not
// expressible as a Spec; it exists to exercise the encoding, and is
// documented as such.
func SpecPresets() []Spec {
	return []Spec{
		{
			V:      SpecVersion,
			Name:   "asymmetry",
			Seed:   1,
			Scheme: "powertcp",
			Topo:   TopoSpec{Kind: "leafspine", Leaves: 4, Spines: 2, ServersPerLeaf: 4},
			Traffic: []TrafficSpec{
				{Kind: "rackpairs", FromRack: &HostRef{Kind: "host", I: 0}, ToRack: &HostRef{Kind: "host", I: 2}, Count: 4, Size: 200_000},
			},
			HorizonUS: 400,
		},
		{
			V:      SpecVersion,
			Name:   "failover",
			Seed:   2,
			Scheme: "powertcp",
			Topo:   TopoSpec{Kind: "leafspine", Leaves: 2, Spines: 2, ServersPerLeaf: 4},
			Traffic: []TrafficSpec{
				{Kind: "rackpairs", FromRack: &HostRef{Kind: "host", I: 0}, ToRack: &HostRef{Kind: "host", I: 1}, Count: 4, Size: -1},
			},
			Events: []EventSpec{
				{Kind: "fail", AtUS: 100, A: &SwitchRef{Tier: "leaf", I: 0}, B: &SwitchRef{Tier: "spine", I: 0}},
				{Kind: "restore", AtUS: 250, A: &SwitchRef{Tier: "leaf", I: 0}, B: &SwitchRef{Tier: "spine", I: 0}},
			},
			ReconvergeUS: 20,
			HorizonUS:    400,
		},
		{
			V:      SpecVersion,
			Name:   "fairness",
			Seed:   3,
			Scheme: "powertcp",
			Topo:   TopoSpec{Kind: "star", Hosts: 8},
			Traffic: []TrafficSpec{
				{Kind: "staggered", Receiver: &HostRef{Kind: "from_end", I: 1}, FirstSender: &HostRef{Kind: "host", I: 0}, Count: 4, StaggerUS: 50, Sizes: []int64{-1, -1, -1, -1}},
			},
			HorizonUS: 500,
		},
		{
			// Hybrid co-simulation: an analytically integrated fluid
			// background (poisson websearch load) under packet-fidelity
			// foreground flows — the internal/hybrid preset.
			V:      SpecVersion,
			Name:   "hybrid",
			Seed:   9,
			Scheme: "powertcp",
			Topo:   TopoSpec{Kind: "leafspine", Leaves: 4, Spines: 2, ServersPerLeaf: 4},
			Traffic: []TrafficSpec{
				{Kind: "poisson", Load: 0.4, GenHorizonUS: 300, Fidelity: "fluid"},
				{Kind: "flows", Flows: []FlowEntry{
					{Src: &HostRef{Kind: "host", I: 0}, Dst: &HostRef{Kind: "host", I: 12}, Size: 120_000},
					{StartUS: 50, Src: &HostRef{Kind: "host", I: 5}, Dst: &HostRef{Kind: "host", I: 9}, Size: 60_000},
				}},
			},
			HorizonUS: 400,
		},
		{
			V:      SpecVersion,
			Name:   "incast",
			Seed:   4,
			Scheme: "powertcp",
			Topo:   TopoSpec{Kind: "fattree", ServersPerTor: 2},
			Traffic: []TrafficSpec{
				{Kind: "pulse", AtUS: 10, Receiver: &HostRef{Kind: "host", I: 0}, FanIn: 8, FlowSize: 100_000},
			},
			HorizonUS: 400,
		},
		{
			V:      SpecVersion,
			Name:   "load-sweep",
			Seed:   5,
			Scheme: "dctcp",
			Topo:   TopoSpec{Kind: "leafspine", Leaves: 4, Spines: 4, ServersPerLeaf: 2},
			Traffic: []TrafficSpec{
				{Kind: "poisson", Load: 0.4, GenHorizonUS: 200},
			},
			HorizonUS: 400,
		},
		{
			V:      SpecVersion,
			Name:   "permutation",
			Seed:   6,
			Scheme: "powertcp",
			Topo:   TopoSpec{Kind: "fattree", ServersPerTor: 2},
			Traffic: []TrafficSpec{
				{Kind: "permutation"},
			},
			HorizonUS: 300,
		},
		{
			// Packet-switched stand-in for the rotor experiment (see the
			// function comment).
			V:      SpecVersion,
			Name:   "rdcn",
			Seed:   7,
			Scheme: "hpcc",
			Topo:   TopoSpec{Kind: "leafspine", Leaves: 4, Spines: 2, ServersPerLeaf: 2},
			Traffic: []TrafficSpec{
				{Kind: "permutation", SeedOffset: 1},
			},
			HorizonUS: 300,
		},
		{
			V:      SpecVersion,
			Name:   "websearch",
			Seed:   8,
			Scheme: "powertcp",
			Topo:   TopoSpec{Kind: "fattree", ServersPerTor: 2},
			Traffic: []TrafficSpec{
				{Kind: "poisson", Load: 0.3, GenHorizonUS: 150},
				{Kind: "requests", RequestRate: 20_000, RequestSize: 20_000, FanIn: 4, GenHorizonUS: 150, SeedOffset: 2},
			},
			HorizonUS: 400,
		},
	}
}
