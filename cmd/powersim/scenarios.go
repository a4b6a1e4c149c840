package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// Composed scenarios the experiment presets do not cover: mixed
// traffic-class schemes, an incast pulse landing inside a failover
// window, and a mid-run load step. Each is a plain scenario.Scenario
// value — no runner files — selected with -scenario <name>.
var composedScenarios = map[string]struct {
	about string
	// takesFidelity marks scenarios whose background honors -fidelity;
	// the flag is rejected on any other (no silently ignored knobs).
	takesFidelity bool
	build         func(scheme scenario.Scheme, seed int64, fidelity scenario.Fidelity) scenario.Scenario
}{
	"hybrid-websearch": {
		about:         "websearch Poisson background at -fidelity packet|fluid under packet-fidelity foreground flows",
		takesFidelity: true,
		build: func(scheme scenario.Scheme, seed int64, fidelity scenario.Fidelity) scenario.Scenario {
			// The hybrid showcase: the heavy websearch background can run
			// as an analytically integrated fluid aggregate (-fidelity
			// fluid) while the foreground transfers stay packet-accurate —
			// same spec otherwise, so the two fidelities are directly
			// comparable.
			bg := scenario.Traffic(scenario.PoissonLoad{Load: 0.5, Horizon: 4 * sim.Millisecond})
			if fidelity == scenario.Fluid {
				bg = scenario.WithFidelity(scenario.Fluid, bg)
			}
			return scenario.Scenario{
				Name: "hybrid-websearch", Scheme: scheme, Seed: seed,
				Topology: scenario.FatTreeTopology{ServersPerTor: 8},
				Traffic: []scenario.Traffic{
					bg,
					scenario.Flows{List: []scenario.FlowSpec{
						{Start: sim.Time(200 * sim.Microsecond), Src: scenario.RackStart(1), Dst: scenario.Host(0), Size: 1 << 20},
						{Start: sim.Time(500 * sim.Microsecond), Src: scenario.RackStart(3), Dst: scenario.RackHost(2, 1), Size: 300_000},
						{Start: sim.Time(sim.Millisecond), Src: scenario.RackStart(5), Dst: scenario.RackHost(4, 0), Size: 120_000},
					}},
				},
				Probes: []scenario.Probe{
					scenario.FCTProbe{},
					&scenario.GoodputProbe{Period: 50 * sim.Microsecond},
				},
				Until: 5 * sim.Millisecond,
			}
		},
	},
	"mixed-classes": {
		about: "websearch Poisson load under the base scheme + a Reno bulk class on the same fabric",
		build: func(scheme scenario.Scheme, seed int64, _ scenario.Fidelity) scenario.Scenario {
			return scenario.Scenario{
				Name: "mixed-classes", Scheme: scheme, Seed: seed,
				Topology: scenario.FatTreeTopology{ServersPerTor: 8},
				Traffic: []scenario.Traffic{
					scenario.PoissonLoad{Load: 0.3, Horizon: 5 * sim.Millisecond},
					scenario.WithScheme(scenario.Reno, scenario.Flows{List: []scenario.FlowSpec{
						{Src: scenario.RackStart(1), Dst: scenario.Host(0), Size: 8 << 20},
						{Src: scenario.RackStart(2), Dst: scenario.Host(1), Size: 8 << 20},
					}}),
				},
				Probes: []scenario.Probe{
					scenario.FCTProbe{},
					&scenario.GoodputProbe{Period: 50 * sim.Microsecond},
				},
				Until: 7 * sim.Millisecond,
			}
		},
	},
	"incast-failover": {
		about: "incast pulse arriving while a spine link is down and routing reconverges",
		build: func(scheme scenario.Scheme, seed int64, _ scenario.Fidelity) scenario.Scenario {
			return scenario.Scenario{
				Name: "incast-failover", Scheme: scheme, Seed: seed,
				Topology: scenario.LeafSpineTopology{Leaves: 3, Spines: 2, ServersPerLeaf: 8},
				Traffic: []scenario.Traffic{
					scenario.RackPairs{FromRack: scenario.RackStart(0), ToRack: scenario.RackStart(2), Count: 4},
					scenario.IncastPulse{
						At: 1200 * sim.Microsecond, Receiver: scenario.RackHost(2, 0),
						FanIn: 8, FlowSize: 500_000,
					},
				},
				Events: scenario.Timeline{
					Events: []scenario.Event{
						scenario.LinkFail{At: sim.Millisecond, A: scenario.Leaf(2), B: scenario.Spine(0)},
						scenario.LinkRestore{At: 3 * sim.Millisecond, A: scenario.Leaf(2), B: scenario.Spine(0)},
					},
					Reconverge: 200 * sim.Microsecond,
				},
				Probes: []scenario.Probe{
					&scenario.GoodputProbe{Period: 20 * sim.Microsecond},
					// The incast receiver's ToR downlink (port 0 faces server 0).
					&scenario.QueueProbe{Switch: scenario.Leaf(2), Port: 0, Period: 20 * sim.Microsecond},
					scenario.FCTProbe{},
				},
				Until: 5 * sim.Millisecond,
			}
		},
	},
	"load-step": {
		about: "websearch load stepping from 0.2 to 0.6 mid-run via an injected Poisson class",
		build: func(scheme scenario.Scheme, seed int64, _ scenario.Fidelity) scenario.Scenario {
			return scenario.Scenario{
				Name: "load-step", Scheme: scheme, Seed: seed,
				Topology: scenario.FatTreeTopology{ServersPerTor: 8},
				Traffic: []scenario.Traffic{
					scenario.PoissonLoad{Load: 0.2, Horizon: 8 * sim.Millisecond},
				},
				Events: scenario.Timeline{Events: []scenario.Event{
					scenario.InjectTraffic{At: 4 * sim.Millisecond, Traffic: scenario.PoissonLoad{
						Load: 0.4, Horizon: 4 * sim.Millisecond, SeedOffset: 2,
					}},
				}},
				Probes: []scenario.Probe{
					scenario.FCTProbe{},
					&scenario.GoodputProbe{Period: 100 * sim.Microsecond},
				},
				Until: 10 * sim.Millisecond,
			}
		},
	},
}

func scenarioNames() []string {
	names := make([]string, 0, len(composedScenarios))
	for n := range composedScenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// scenarioTakesFidelity reports whether the named scenario consumes the
// -fidelity flag.
func scenarioTakesFidelity(name string) bool {
	return composedScenarios[name].takesFidelity
}

// runScenario resolves and executes one composed scenario.
func runScenario(name, schemeName string, seed int64, fidelity string) (*scenario.Result, error) {
	entry, ok := composedScenarios[name]
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (known: %s)", name, strings.Join(scenarioNames(), ", "))
	}
	var fd scenario.Fidelity
	switch fidelity {
	case "", "packet":
		fd = scenario.Packet
	case "fluid":
		fd = scenario.Fluid
	default:
		return nil, fmt.Errorf("unknown fidelity %q (packet or fluid)", fidelity)
	}
	scheme, err := scenario.ResolveScheme(schemeName)
	if err != nil {
		return nil, err
	}
	return scenario.Run(entry.build(scheme, seed, fd))
}
