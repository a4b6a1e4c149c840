package scenario

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// rejectScenario wraps one malformed axis value into a minimal
// otherwise-valid scenario.
func rejectScenario(mutate func(*Scenario)) Scenario {
	sc := Scenario{
		Name:     "reject",
		Seed:     1,
		Topology: LeafSpineTopology{Leaves: 2, Spines: 2, ServersPerLeaf: 2},
		Traffic: []Traffic{Flows{List: []FlowSpec{{
			Src: Host(0), Dst: RackStart(1), Size: 10_000,
		}}}},
		Until: 100 * sim.Microsecond,
	}
	mutate(&sc)
	return sc
}

// TestRunRejectsMalformedScenarios pins that every malformed selector,
// topology dim, flow value, and event the fuzzlab generator/shrinker
// can legitimately produce is rejected with an error — never a panic.
// Each case names the substring its error must carry, so a rejection
// cannot silently migrate to a different (possibly wrong) code path.
func TestRunRejectsMalformedScenarios(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr string
	}{
		{"no topology", func(sc *Scenario) { sc.Topology = nil }, "no topology"},
		{"no horizon", func(sc *Scenario) { sc.Until = 0 }, "no run horizon"},
		{"star too small", func(sc *Scenario) { sc.Topology = StarTopology{Hosts: 1} }, "≥2 hosts"},
		{"fat-tree negative servers", func(sc *Scenario) {
			sc.Topology = FatTreeTopology{ServersPerTor: -1}
		}, "ServersPerTor -1 is negative"},
		{"fat-tree negative pods", func(sc *Scenario) {
			sc.Topology = FatTreeTopology{ServersPerTor: 2, Pods: -2}
		}, "Pods -2 is negative"},
		{"fat-tree negative partitions", func(sc *Scenario) {
			sc.Topology = FatTreeTopology{ServersPerTor: 2, Partitions: -4}
		}, "Partitions -4 is negative"},
		{"leaf-spine negative leaves", func(sc *Scenario) {
			sc.Topology = LeafSpineTopology{Leaves: -1, Spines: 2, ServersPerLeaf: 2}
		}, "Leaves -1 is negative"},
		{"leaf-spine negative spine rate", func(sc *Scenario) {
			sc.Topology = LeafSpineTopology{Leaves: 2, Spines: 2, ServersPerLeaf: 2,
				SpineRates: []units.BitRate{-units.Gbps}}
		}, "SpineRates[0]"},
		{"leaf-spine zero spine rate", func(sc *Scenario) {
			sc.Topology = LeafSpineTopology{Leaves: 2, Spines: 2, ServersPerLeaf: 2,
				SpineRates: []units.BitRate{100 * units.Gbps, 0}}
		}, "SpineRates[1]"},
		{"leaf-spine bad routing", func(sc *Scenario) {
			sc.Topology = LeafSpineTopology{Leaves: 2, Spines: 2, ServersPerLeaf: 2, Routing: "spray"}
		}, "spray"},
		{"rotor one tor", func(sc *Scenario) {
			sc.Topology = RotorTopology{Tors: 1, ServersPerTor: 2, Weeks: 1}
		}, "≥2 ToRs"},
		{"unset host ref", func(sc *Scenario) {
			sc.Traffic = []Traffic{Flows{List: []FlowSpec{{Dst: Host(1), Size: 1000}}}}
		}, "unset host reference"},
		{"host out of range", func(sc *Scenario) {
			sc.Traffic = []Traffic{Flows{List: []FlowSpec{{Src: Host(99), Dst: Host(0), Size: 1000}}}}
		}, "fabric has 4 hosts"},
		{"rack out of range", func(sc *Scenario) {
			sc.Traffic = []Traffic{Flows{List: []FlowSpec{{Src: RackStart(7), Dst: Host(0), Size: 1000}}}}
		}, "rack 7"},
		{"rack-local overflow", func(sc *Scenario) {
			// Host 2 of a 2-host rack exists globally (it is rack 1's first
			// host) but must not resolve across the rack boundary.
			sc.Traffic = []Traffic{Flows{List: []FlowSpec{{Src: RackHost(0, 2), Dst: Host(0), Size: 1000}}}}
		}, "racks hold 2 hosts"},
		{"negative rack host", func(sc *Scenario) {
			sc.Traffic = []Traffic{Flows{List: []FlowSpec{{Src: RackHost(0, -1), Dst: Host(3), Size: 1000}}}}
		}, "host -1"},
		{"zero-size flow", func(sc *Scenario) {
			sc.Traffic = []Traffic{Flows{List: []FlowSpec{{Src: Host(0), Dst: Host(2), Size: 0}}}}
		}, "non-positive size"},
		{"negative-size flow", func(sc *Scenario) {
			sc.Traffic = []Traffic{Flows{List: []FlowSpec{{Src: Host(0), Dst: Host(2), Size: -7}}}}
		}, "non-positive size"},
		{"self flow", func(sc *Scenario) {
			sc.Traffic = []Traffic{Flows{List: []FlowSpec{{Src: Host(1), Dst: Host(1), Size: 1000}}}}
		}, "to itself"},
		{"zero-host span", func(sc *Scenario) {
			sc.Traffic = []Traffic{IncastPulse{Receiver: Host(0), FanIn: 4, FlowSize: 1000,
				Senders: Span{From: Host(2), To: Host(2)}}}
		}, "no eligible senders"},
		{"span to without from", func(sc *Scenario) {
			sc.Traffic = []Traffic{IncastPulse{Receiver: Host(0), FanIn: 2, FlowSize: 1000,
				Senders: Span{To: Host(3)}}}
		}, "Senders.To is set without Senders.From"},
		{"zero fan-in", func(sc *Scenario) {
			sc.Traffic = []Traffic{IncastPulse{Receiver: Host(0), FanIn: 0, FlowSize: 1000}}
		}, "FanIn"},
		{"pulse zero flow size", func(sc *Scenario) {
			sc.Traffic = []Traffic{IncastPulse{Receiver: Host(0), FanIn: 2, FlowSize: 0}}
		}, "non-positive size"},
		{"negative event time", func(sc *Scenario) {
			sc.Events = Timeline{Events: []Event{LinkFail{At: -sim.Microsecond, A: Leaf(0), B: Spine(0)}}}
		}, "negative time"},
		{"negative restore time", func(sc *Scenario) {
			sc.Events = Timeline{Events: []Event{LinkRestore{At: -sim.Microsecond, A: Leaf(0), B: Spine(0)}}}
		}, "negative time"},
		{"negative inject time", func(sc *Scenario) {
			sc.Events = Timeline{Events: []Event{InjectTraffic{At: -sim.Microsecond,
				Traffic: Flows{List: []FlowSpec{{Src: Host(0), Dst: Host(2), Size: 1000}}}}}}
		}, "negative time"},
		{"negative reconverge", func(sc *Scenario) {
			sc.Events = Timeline{Reconverge: -sim.Microsecond}
		}, "reconvergence"},
		{"event switch out of range", func(sc *Scenario) {
			sc.Events = Timeline{Events: []Event{LinkFail{At: sim.Microsecond, A: Leaf(0), B: Spine(9)}}}
		}, "spine switch 9"},
		{"fluid pulse", func(sc *Scenario) {
			sc.Traffic = []Traffic{WithFidelity(Fluid, IncastPulse{Receiver: Host(0), FanIn: 2, FlowSize: 1000})}
		}, "cannot run at fluid fidelity"},
		{"fluid staggered", func(sc *Scenario) {
			sc.Traffic = []Traffic{WithFidelity(Fluid, Staggered{Receiver: Host(0), FirstSender: Host(1), Count: 2, Sizes: []int64{1000, 1000}})}
		}, "cannot run at fluid fidelity"},
		{"fluid requests", func(sc *Scenario) {
			sc.Traffic = []Traffic{WithFidelity(Fluid, IncastRequests{RequestRate: 1000, RequestSize: 1000, FanIn: 2, Horizon: 50 * sim.Microsecond})}
		}, "cannot run at fluid fidelity"},
		{"fluid with link failure", func(sc *Scenario) {
			sc.Traffic = []Traffic{WithFidelity(Fluid, sc.Traffic[0])}
			sc.Events = Timeline{Events: []Event{LinkFail{At: sim.Microsecond, A: Leaf(0), B: Spine(0)}}}
		}, "link failures"},
		{"fluid inject", func(sc *Scenario) {
			sc.Events = Timeline{Events: []Event{InjectTraffic{At: sim.Microsecond,
				Traffic: WithFidelity(Fluid, Flows{List: []FlowSpec{{Src: Host(0), Dst: Host(2), Size: 1000}}})}}}
		}, "injected traffic cannot run at fluid fidelity"},
		// What the rotor still refuses, each for a reason of its own.
		{"fluid rotor", func(sc *Scenario) {
			sc.Topology = RotorTopology{Tors: 4, ServersPerTor: 2, Weeks: 2}
			sc.Traffic = []Traffic{WithFidelity(Fluid, Permutation{})}
		}, "rotor routes rotate"},
		{"rotor link event", func(sc *Scenario) {
			sc.Topology = RotorTopology{Tors: 4, ServersPerTor: 2, Weeks: 2}
			sc.Events = Timeline{Events: []Event{LinkFail{At: sim.Microsecond, A: SwitchIndex(0), B: SwitchIndex(4)}}}
		}, "both write the ToR tables"},
		{"rotor traffic-class scheme", func(sc *Scenario) {
			sc.Topology = RotorTopology{Tors: 4, ServersPerTor: 2, Weeks: 2}
			sc.Traffic = []Traffic{WithScheme(HPCC, sc.Traffic[0])}
		}, "Fig. 8 comparison fixes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := rejectScenario(tc.mutate)
			scheme, err := ResolveScheme("powertcp")
			if err != nil {
				t.Fatal(err)
			}
			sc.Scheme = scheme
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Run panicked instead of erroring: %v", r)
				}
			}()
			_, err = Run(sc)
			if err == nil {
				t.Fatalf("Run accepted the malformed scenario")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Run error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSpecJSONRejectsOutOfDomainValues pins the value domains at the
// serialisable door: a Spec that decodes cleanly but carries a load
// outside (0, 1], a non-positive request rate or size, a negative count
// or a negative duration fails in Build or Run with an error naming the
// field and the value, from the same component check an in-process
// Scenario meets — never an OK Result of zero events.
func TestSpecJSONRejectsOutOfDomainValues(t *testing.T) {
	cases := []struct {
		name    string
		traffic string
		wantErr string
	}{
		{"load above one", `{"kind":"poisson","load":7,"gen_horizon_us":100}`, "Load 7 "},
		{"negative load", `{"kind":"poisson","load":-0.5,"gen_horizon_us":100}`, "Load -0.5 "},
		{"absent load", `{"kind":"poisson","gen_horizon_us":100}`, "Load 0 "},
		{"negative poisson start", `{"kind":"poisson","load":0.3,"at_us":-5,"gen_horizon_us":100}`, "Start -5"},
		{"negative request size", `{"kind":"requests","request_rate":20000,"request_size":-20000,"fan_in":4,"gen_horizon_us":100}`, "RequestSize -20000 "},
		{"absent request size", `{"kind":"requests","request_rate":20000,"fan_in":4,"gen_horizon_us":100}`, "RequestSize 0 "},
		{"negative request rate", `{"kind":"requests","request_rate":-1,"request_size":20000,"fan_in":4,"gen_horizon_us":100}`, "RequestRate -1 "},
		{"absent request rate", `{"kind":"requests","request_size":20000,"fan_in":4,"gen_horizon_us":100}`, "RequestRate 0 "},
		{"negative request fan-in", `{"kind":"requests","request_rate":20000,"request_size":20000,"fan_in":-4,"gen_horizon_us":100}`, "FanIn ≥ 1, got -4"},
		{"negative requests start", `{"kind":"requests","request_rate":20000,"request_size":20000,"fan_in":4,"at_us":-5,"gen_horizon_us":100}`, "Start -5"},
		{"negative rack-pair count", `{"kind":"rackpairs","from_rack":{"kind":"rack_start"},"to_rack":{"kind":"rack_start","rack":1},"count":-1}`, "Count -1 "},
		{"span_to without span_from", `{"kind":"pulse","receiver":{"kind":"host"},"fan_in":2,"flow_size":1000,"span_to":{"kind":"host","i":9}}`, "Senders.To is set without Senders.From"},
		{"span_from without kind", `{"kind":"pulse","receiver":{"kind":"host"},"fan_in":2,"flow_size":1000,"span_from":{"i":3}}`, "unset host reference"},
		{"negative stagger", `{"kind":"staggered","receiver":{"kind":"host"},"first_sender":{"kind":"host","i":1},"count":2,"stagger_us":-5,"sizes":[1000]}`, "Stagger -5"},
		{"negative staggered size", `{"kind":"staggered","receiver":{"kind":"host"},"first_sender":{"kind":"host","i":1},"count":2,"sizes":[1000,-7]}`, "size -7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := `{"v":2,"seed":1,"scheme":"powertcp","topo":{"kind":"fattree","servers_per_tor":2},` +
				`"horizon_us":200,"traffic":[` + tc.traffic + `]}`
			sp, err := DecodeSpec([]byte(doc))
			if err != nil {
				t.Fatalf("spec does not decode: %v", err)
			}
			sc, err := sp.Build(1)
			if err == nil {
				var res *Result
				if res, err = Run(sc); err == nil {
					t.Fatalf("Run accepted the spec: %v engine steps", res.Scalar("engine_steps"))
				}
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
