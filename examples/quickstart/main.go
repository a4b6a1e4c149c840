// Quickstart: the two smallest end-to-end uses of the library.
//
// Act 1 builds a dumbbell through the low-level API, transfers 4 MiB
// under PowerTCP, and prints the flow completion time plus the
// bottleneck queue observed along the way.
//
// Act 2 does the same category of thing through the experiment API: one
// spec (a preset struct such as Incast{FanIn: 10}, a scheme, a seed, run
// with RunExperiment) reproduces a whole paper scenario and returns the
// common result envelope — scalar metrics plus named series, encodable
// as JSON/TSV. Ablations compose as scheme options (SchemeOpts:
// Gamma(0.7)) instead of bespoke runner arguments; suites of specs run
// concurrently via RunSuite.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	powertcp "repro"
)

func main() {
	lowLevel()
	experimentAPI()
}

// lowLevel drives the simulator directly: topology, hosts, one flow.
func lowLevel() {
	net := powertcp.Dumbbell(powertcp.DumbbellConfig{
		Left: 1, Right: 1,
		HostRate:       100 * powertcp.Gbps,
		BottleneckRate: 25 * powertcp.Gbps,
		Opts: powertcp.NetOptions{
			Hosts: powertcp.Hosts(powertcp.HostConfig{BaseRTT: 16 * powertcp.Microsecond}),
			INT:   true, // PowerTCP consumes in-band telemetry
		},
	})

	src, dst := net.TransportHost(0), net.TransportHost(1)

	const size = 4 << 20
	flow := src.StartFlow(net.NextFlowID(), dst.ID(), size, powertcp.New(powertcp.Config{}), 0)

	// Sample the bottleneck queue every 100 µs while the flow runs.
	var peakQueue int64
	bottleneck := net.BottleneckPort()
	var sample func()
	sample = func() {
		if q := bottleneck.QueueBytes(); q > peakQueue {
			peakQueue = q
		}
		if !flow.Done {
			net.Eng.After(100*powertcp.Microsecond, sample)
		}
	}
	net.Eng.After(0, sample)

	net.Eng.Run()

	fmt.Println("— low-level API: one 4 MiB PowerTCP transfer over a 25G dumbbell —")
	fmt.Printf("transferred  : %d bytes\n", dst.ReceivedTotal())
	fmt.Printf("FCT          : %v\n", flow.FCT())
	fmt.Printf("goodput      : %.2f Gbps\n",
		float64(size)*8/flow.FCT().Seconds()/1e9)
	fmt.Printf("peak queue   : %.1f KB (PowerTCP keeps it near β = bandwidth·τ/N)\n",
		float64(peakQueue)/1024)
	fmt.Printf("retransmits  : %d\n", flow.Retransmits)
}

// experimentAPI runs a registered paper scenario through one spec.
func experimentAPI() {
	res, err := powertcp.RunExperiment(powertcp.ExperimentSpec{
		Preset: powertcp.Incast{FanIn: 10},
		Scheme: powertcp.SchemePowerTCP,
		Seed:   1,
		// Ablations compose as scheme options; try Gamma(0.5) here.
		SchemeOpts: []powertcp.SchemeOption{powertcp.Gamma(0.9)},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n— experiment API: the Figure 4 incast as one spec —")
	fmt.Printf("experiment   : %s (scheme %s, seed %d)\n", res.Experiment, res.Scheme, res.Seed)
	for _, name := range res.ScalarNames() {
		fmt.Printf("%-18s: %g\n", name, res.Scalar(name))
	}
	for _, s := range res.Series {
		fmt.Printf("series %-12s: %d samples\n", s.Name, len(s.Points))
	}
	fmt.Println("\nEvery figure of the paper is a set of these specs; cmd/figures runs")
	fmt.Println("them as parallel suites. See EXPERIMENTS.md for the full index.")
}
