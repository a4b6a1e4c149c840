// RDCN: the paper's §5 case study at example scale.
//
// A rotor-based reconfigurable datacenter cycles 100 Gbps circuits
// between ToR pairs (225 µs days, 20 µs nights). The program compares
// PowerTCP against reTCP (600/1800 µs prebuffering) and HPCC on circuit
// utilization and tail queuing latency — the trade-off of Figure 8 — and
// prints PowerTCP's throughput reaction around one circuit day. The four
// schemes run as one parallel suite.
//
//	go run ./examples/rdcn
package main

import (
	"errors"
	"fmt"
	"log"

	powertcp "repro"
)

func main() {
	schemes := []string{
		powertcp.SchemePowerTCP,
		powertcp.SchemeHPCC,
		powertcp.SchemeReTCP600,
		powertcp.SchemeReTCP1800,
	}
	var specs []powertcp.ExperimentSpec
	for _, scheme := range schemes {
		specs = append(specs, powertcp.ExperimentSpec{Preset: powertcp.RDCN{}, Scheme: scheme, Seed: 1})
	}
	results, err := powertcp.RunSuite(specs...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("reconfigurable DCN: who fills the circuit, and at what latency cost?")
	fmt.Printf("%-14s %18s %20s %14s\n",
		"scheme", "circuit util", "tail queuing (p99)", "goodput")
	for _, res := range results {
		fmt.Printf("%-14s %17.1f%% %18.1fµs %11.1fGbps\n", res.Scheme,
			res.Scalar("circuit_utilization")*100, res.Scalar("tail_queuing_us"), res.Scalar("avg_goodput_gbps"))
	}

	// Show the bandwidth-tracking behaviour: PowerTCP's pair throughput
	// around its circuit day (the gray region of Fig. 8a).
	tp, err1 := results[0].SeriesNamed("throughput_gbps")
	voq, err2 := results[0].SeriesNamed("voq_kb")
	if err := errors.Join(err1, err2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPowerTCP pair throughput (Gbps) and VOQ (KB) across the first rotor week:")
	n := len(tp.Points)
	step := max(n/24, 1)
	for i := 0; i < n/3; i += step {
		p := tp.Points[i]
		fmt.Printf("%7.2fms %7.1fG %7.0fKB |%s\n", p.X/1e3, p.V, voq.Points[i].V, bars(int(p.V/4)))
	}
	fmt.Println("\nThe spike is the circuit day: PowerTCP ramps within ~1 RTT of the")
	fmt.Println("bandwidth appearing, without reTCP's prebuffered queue sitting in the VOQ.")
}

func bars(n int) string {
	if n < 0 {
		n = 0
	}
	if n > 30 {
		n = 30
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
