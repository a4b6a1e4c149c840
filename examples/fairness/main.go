// Fairness: the paper's Figure 5 scenario.
//
// Four flows start 1 ms apart on one 25 Gbps bottleneck and leave in
// arrival order. The program prints each flow's share over time under
// PowerTCP — the staircase converging to the fair share at every arrival
// and departure — plus the mean Jain fairness index.
//
//	go run ./examples/fairness
package main

import (
	"fmt"
	"log"

	powertcp "repro"
)

func main() {
	res, err := powertcp.RunExperiment(powertcp.ExperimentSpec{
		Preset: powertcp.Fairness{}, Scheme: powertcp.SchemePowerTCP, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	// One flow<i>_gbps series per flow, all on the same time axis.
	per := res.Series

	fmt.Println("four staggered PowerTCP flows on a 25G bottleneck (Gbps per flow)")
	fmt.Printf("%8s %8s %8s %8s %8s\n", "t(ms)", "flow1", "flow2", "flow3", "flow4")
	n := len(per[0].Points)
	for k := 0; k < n; k += n / 16 {
		fmt.Printf("%8.2f", per[0].Points[k].X/1e3)
		for _, s := range per {
			fmt.Printf(" %8.2f", s.Points[k].V)
		}
		fmt.Println()
	}
	fmt.Printf("\nmean Jain fairness index: %.3f (1.0 = perfectly fair)\n", res.Scalar("jain"))
	fmt.Println("Theorem 3: PowerTCP is β-weighted proportionally fair; with equal β")
	fmt.Println("the allocation is max-min fair, which is what the staircase shows.")
}
