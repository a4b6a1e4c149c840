package powertcp_test

import (
	"fmt"

	powertcp "repro"
)

// ExampleNew transfers one megabyte under PowerTCP across a 25 Gbps
// bottleneck and reports completion. Runs are fully deterministic.
func ExampleNew() {
	net := powertcp.Dumbbell(powertcp.DumbbellConfig{
		Left: 1, Right: 1,
		HostRate:       100 * powertcp.Gbps,
		BottleneckRate: 25 * powertcp.Gbps,
		Opts: powertcp.NetOptions{
			Hosts: powertcp.Hosts(powertcp.HostConfig{BaseRTT: 16 * powertcp.Microsecond}),
			INT:   true,
		},
	})
	src, dst := net.TransportHost(0), net.TransportHost(1)
	f := src.StartFlow(net.NextFlowID(), dst.ID(), 1<<20, powertcp.New(powertcp.Config{}), 0)
	net.Eng.Run()
	fmt.Printf("done=%v bytes=%d retransmits=%d\n", f.Done, dst.ReceivedTotal(), f.Retransmits)
	// Output: done=true bytes=1048576 retransmits=0
}

// ExampleRunExperiment runs one registered experiment through its typed
// preset — the same path cmd/figures uses.
func ExampleRunExperiment() {
	res, err := powertcp.RunExperiment(powertcp.ExperimentSpec{
		Preset: powertcp.Incast{FanIn: 10},
		Scheme: powertcp.SchemePowerTCP,
		Seed:   1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed=%.0f/%.0f\n", res.Scalar("completed"), res.Scalar("fan_in"))
	// Output: completed=10/10
}

// ExampleScenario composes an experiment from the four scenario axes —
// topology, traffic, events, probes — and runs it through the generic
// scenario runner: cross-rack background flows plus an incast pulse
// that lands while a spine link is down. No runner code, one value.
func ExampleScenario() {
	scheme, err := powertcp.ResolveScheme(powertcp.SchemePowerTCP)
	if err != nil {
		panic(err)
	}
	res, err := powertcp.RunScenario(powertcp.Scenario{
		Scheme:   scheme,
		Seed:     1,
		Topology: powertcp.LeafSpineTopology{Leaves: 2, Spines: 2, ServersPerLeaf: 4},
		Traffic: []powertcp.Traffic{
			powertcp.RackPairs{FromRack: powertcp.RackStart(0), ToRack: powertcp.RackStart(1), Count: 2},
			powertcp.IncastPulse{At: 500 * powertcp.Microsecond,
				Receiver: powertcp.RackHost(1, 3), FanIn: 4, FlowSize: 200_000},
		},
		Events: powertcp.Timeline{
			Events: []powertcp.ScenarioEvent{
				powertcp.LinkFail{At: 400 * powertcp.Microsecond, A: powertcp.Leaf(1), B: powertcp.Spine(0)},
				powertcp.LinkRestore{At: 1200 * powertcp.Microsecond, A: powertcp.Leaf(1), B: powertcp.Spine(0)},
			},
			Reconverge: 100 * powertcp.Microsecond,
		},
		Probes: []powertcp.Probe{powertcp.FCTProbe{}},
		Until:  3 * powertcp.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("incast flows completed=%d\n", int(res.Scalar("completed")))
	// Output: incast flows completed=4
}

// ExampleFluidSystem checks Theorem 1 numerically: both eigenvalues of
// the linearized PowerTCP system are negative, so the equilibrium
// (bτ+β̂, β̂) is asymptotically stable.
func ExampleFluidSystem() {
	s := &powertcp.FluidSystem{
		B:     100 * powertcp.Gbps,
		Tau:   20 * powertcp.Microsecond,
		Gamma: 0.9,
		Dt:    10 * powertcp.Microsecond,
		Beta:  12_500,
		Law:   powertcp.LawPower,
	}
	e1, e2 := s.Eigenvalues()
	eq, _ := s.Equilibrium()
	fmt.Printf("stable=%v w_e=%.0f q_e=%.0f\n", e1 < 0 && e2 < 0, eq.W, eq.Q)
	// Output: stable=true w_e=262500 q_e=12500
}

// ExampleNewTheta runs the standalone (no-INT) variant: only RTT
// timestamps feed the control law.
func ExampleNewTheta() {
	net := powertcp.Star(powertcp.StarConfig{
		Hosts:    2,
		HostRate: 25 * powertcp.Gbps,
		Opts: powertcp.NetOptions{
			Hosts: powertcp.Hosts(powertcp.HostConfig{BaseRTT: 10 * powertcp.Microsecond}),
		},
	})
	src, dst := net.TransportHost(0), net.TransportHost(1)
	f := src.StartFlow(net.NextFlowID(), dst.ID(), 200_000, powertcp.NewTheta(powertcp.Config{}), 0)
	net.Eng.Run()
	fmt.Printf("done=%v\n", f.Done)
	// Output: done=true
}
