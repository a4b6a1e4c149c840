package powertcp_test

import (
	"fmt"

	powertcp "repro"
)

// ExampleNew transfers 4 MiB under PowerTCP across a 25 Gbps
// bottleneck, sampling the bottleneck queue every 100 µs on the way:
// PowerTCP holds the queue near its β target instead of filling the
// buffer. Runs are fully deterministic.
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
	f := src.StartFlow(net.NextFlowID(), dst.ID(), 4<<20, powertcp.New(powertcp.Config{}), 0)

	var peak int64
	bottleneck := net.BottleneckPort()
	var sample func()
	sample = func() {
		peak = max(peak, bottleneck.QueueBytes())
		if !f.Done {
			net.Eng.After(100*powertcp.Microsecond, sample)
		}
	}
	net.Eng.After(0, sample)
	net.Eng.Run()
	fmt.Printf("done=%v bytes=%d retransmits=%d\n", f.Done, dst.ReceivedTotal(), f.Retransmits)
	fmt.Printf("FCT=%v peak_queue=%.1fKB\n", f.FCT(), float64(peak)/1024)
	// Output:
	// done=true bytes=4194304 retransmits=0
	// FCT=1.434871ms+360ps peak_queue=52.2KB
}

// ExampleRunExperiment runs one registered experiment through its typed
// preset — the same path cmd/figures uses — with an ablation composed
// as a scheme option (the default γ is 0.9), and reads the result
// envelope by name.
func ExampleRunExperiment() {
	res, err := powertcp.RunExperiment(powertcp.ExperimentSpec{
		Preset:     powertcp.Incast{FanIn: 10},
		Scheme:     powertcp.SchemePowerTCP,
		Seed:       1,
		SchemeOpts: []powertcp.SchemeOption{powertcp.Gamma(0.5)},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed=%.0f/%.0f peak_queue=%.0fKB goodput=%.1fGbps\n", res.Scalar("completed"),
		res.Scalar("fan_in"), res.Scalar("peak_queue_kb"), res.Scalar("avg_goodput_gbps"))
	for _, s := range res.Series {
		fmt.Printf("series %s: %d samples\n", s.Name, len(s.Points))
	}
	// Output:
	// completed=10/10 peak_queue=658KB goodput=22.7Gbps
	// series throughput_gbps: 226 samples
	// series queue_kb: 226 samples
	// series delivered_bytes_by_host: 64 samples
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

// ExampleTrafficWithScheme mixes two traffic classes under different
// congestion control on one leaf-spine fabric — PowerTCP websearch
// background and a Reno bulk flow — and fails a spine link from 1 ms to
// 3 ms under them.
func ExampleTrafficWithScheme() {
	scheme, err := powertcp.ResolveScheme(powertcp.SchemePowerTCP)
	if err != nil {
		panic(err)
	}
	res, err := powertcp.RunScenario(powertcp.Scenario{
		Scheme:   scheme,
		Seed:     1,
		Topology: powertcp.LeafSpineTopology{Leaves: 3, Spines: 2, ServersPerLeaf: 8},
		Traffic: []powertcp.Traffic{
			powertcp.PoissonLoad{Load: 0.2, Horizon: 4 * powertcp.Millisecond},
			powertcp.TrafficWithScheme(powertcp.SchemeReno, powertcp.Flows{List: []powertcp.FlowSpec{
				{Src: powertcp.RackHost(0, 0), Dst: powertcp.RackHost(2, 0), Size: 16 << 20},
			}}),
		},
		Events: powertcp.Timeline{
			Events: []powertcp.ScenarioEvent{
				powertcp.LinkFail{At: powertcp.Millisecond, A: powertcp.Leaf(2), B: powertcp.Spine(0)},
				powertcp.LinkRestore{At: 3 * powertcp.Millisecond, A: powertcp.Leaf(2), B: powertcp.Spine(0)},
			},
			Reconverge: 200 * powertcp.Microsecond,
		},
		Probes: []powertcp.Probe{
			powertcp.FCTProbe{},
			&powertcp.GoodputProbe{Period: 50 * powertcp.Microsecond},
		},
		Until: 6 * powertcp.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("started=%d completed=%d goodput=%.1fGbps short_p999=%.1f\n",
		int(res.Scalar("started")), int(res.Scalar("completed")),
		res.Scalar("goodput_gbps_avg"), res.Scalar("short_p999"))
	// Output: started=36 completed=33 goodput=76.4Gbps short_p999=1.2
}

// ExampleMonitor records a long PowerTCP flow's window through an 8:1
// incast that lands on the same receiver 1 ms in. The window sits at the
// bandwidth-delay product (37.5 KB) before the burst, falls to about its
// share of the receiver while the burst drains, and is back at the
// bandwidth-delay product once the competitors finish.
func ExampleMonitor() {
	net := powertcp.Star(powertcp.StarConfig{
		Hosts:    10,
		HostRate: 25 * powertcp.Gbps,
		Opts: powertcp.NetOptions{
			Hosts:         powertcp.Hosts(powertcp.HostConfig{BaseRTT: 12 * powertcp.Microsecond}),
			BufferPerGbps: 10 * 1024, // the §4.1 Tofino ratio
			INT:           true,
		},
	})
	mon := powertcp.Monitor(powertcp.New(powertcp.Config{}), 20*powertcp.Microsecond)
	net.TransportHost(1).StartFlow(net.NextFlowID(), net.HostID(0), powertcp.Unbounded, mon, 0)
	for i := 2; i < 10; i++ {
		net.TransportHost(i).StartFlow(net.NextFlowID(), net.HostID(0),
			300_000, powertcp.New(powertcp.Config{}), powertcp.Time(powertcp.Millisecond))
	}
	net.Eng.RunUntil(powertcp.Time(3 * powertcp.Millisecond))

	burst := powertcp.Time(powertcp.Millisecond)
	var before, last float64
	low, lowAt := -1.0, powertcp.Time(0)
	for _, s := range mon.Samples {
		switch {
		case s.At < burst:
			before = s.Cwnd
		case low < 0 || s.Cwnd < low:
			low, lowAt = s.Cwnd, s.At
		}
		last = s.Cwnd
	}
	fmt.Printf("before=%.0fB min=%.0fB at=%.0fµs final=%.0fB\n",
		before, low, float64(lowAt)/float64(powertcp.Microsecond), last)
	// Output: before=37351B min=6466B at=1241µs final=37331B
}

// ExampleRunSuite runs one incast per scheme as a single suite over a
// worker pool; results come back in spec order whatever the pool size.
func ExampleRunSuite() {
	var specs []powertcp.ExperimentSpec
	for _, scheme := range []string{powertcp.SchemePowerTCP, powertcp.SchemeThetaPowerTCP, powertcp.SchemeHPCC, powertcp.SchemeTimely} {
		specs = append(specs, powertcp.ExperimentSpec{
			Preset: powertcp.Incast{FanIn: 10}, Scheme: scheme, Seed: 1})
	}
	results, err := powertcp.RunSuite(specs...)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%-14s peak=%4.0fKB end=%3.0fKB goodput=%.1fGbps\n", r.Scheme,
			r.Scalar("peak_queue_kb"), r.Scalar("end_queue_kb"), r.Scalar("avg_goodput_gbps"))
	}
	// Output:
	// powertcp       peak= 607KB end= 11KB goodput=22.8Gbps
	// theta-powertcp peak=1017KB end=  0KB goodput=23.3Gbps
	// hpcc           peak= 635KB end=  0KB goodput=20.1Gbps
	// timely         peak=1988KB end=  0KB goodput=9.2Gbps
}
