// Websearch: the paper's Figure 6 headline at example scale.
//
// Offers the web-search flow-size distribution at 60% ToR-uplink load on
// the oversubscribed fat-tree and prints the 99.9th-percentile FCT
// slowdown per flow-size bin for PowerTCP, θ-PowerTCP, HPCC, TIMELY and
// DCQCN — the comparison behind the paper's "−80% vs DCQCN/TIMELY, −33%
// vs HPCC for short flows" claim. The five cells run as one parallel
// suite.
//
//	go run ./examples/websearch
package main

import (
	"fmt"
	"log"

	powertcp "repro"
	"repro/internal/stats"
)

func main() {
	schemes := []string{
		powertcp.SchemePowerTCP,
		powertcp.SchemeThetaPowerTCP,
		powertcp.SchemeHPCC,
		powertcp.SchemeTimely,
		powertcp.SchemeDCQCN,
	}
	var specs []powertcp.ExperimentSpec
	for _, scheme := range schemes {
		specs = append(specs, powertcp.ExperimentSpec{
			Preset: powertcp.WebSearch{Load: 0.6}, Scheme: scheme, Seed: 1})
	}
	results, err := powertcp.RunSuite(specs...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("websearch workload at 60% load — 99.9p FCT slowdown per size bin")
	fmt.Printf("%-16s", "scheme")
	for _, b := range stats.FlowSizeBins {
		fmt.Printf("%8s", "≤"+stats.SizeLabel(b))
	}
	fmt.Printf("%10s\n", "done")
	for _, res := range results {
		fmt.Printf("%-16s", res.Scheme)
		for _, b := range stats.FlowSizeBins {
			fmt.Printf("%8.1f", res.Scalar("p999_bin_"+stats.SizeLabel(b)))
		}
		fmt.Printf("%7.0f/%.0f\n", res.Scalar("completed"), res.Scalar("started"))
	}
	fmt.Println("\nShort-flow bins (≤10KB) are where power-based control pays off: the")
	fmt.Println("bottleneck queue stays near zero, so tail latency tracks the base RTT.")
}
