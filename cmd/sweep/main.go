// Command sweep reproduces the parameter study behind the paper's γ=0.9
// recommendation (§3.3): it sweeps the EWMA weight over scenarios that
// stress both of γ's failure modes — reaction speed (incast) and noise
// sensitivity (steady websearch load) — and prints the table.
//
// The whole grid is one experiment suite executed concurrently over a
// worker pool; every column of a row runs under the same swept γ (the
// previous one-off runners left fairness and websearch at the default).
//
//	sweep            # γ ∈ {0.3 … 1.0} over incast + fairness + websearch
//	sweep -quick     # skip the websearch column (seconds instead of minutes)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/sim"
)

var (
	quickFlag   = flag.Bool("quick", false, "skip the websearch column")
	seedFlag    = flag.Int64("seed", 1, "RNG seed")
	workersFlag = flag.Int("workers", 0, "suite worker pool size (0 = GOMAXPROCS)")
)

func main() {
	flag.Parse()
	gammas := []float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0}

	// One suite: every γ × every scenario column, all under the swept γ.
	var specs []exp.Spec
	perRow := 2
	if !*quickFlag {
		perRow = 3
	}
	for _, g := range gammas {
		cell := func(p exp.Preset) exp.Spec {
			return exp.Spec{Preset: p, Scheme: scenario.PowerTCP,
				SchemeOpts: []scenario.SchemeOption{scenario.Gamma(g)},
				Seed:       *seedFlag, Label: fmt.Sprintf("gamma=%.2f", g)}
		}
		specs = append(specs,
			cell(exp.Incast{FanIn: 16, Window: 3 * sim.Millisecond}),
			cell(exp.Fairness{Window: 6 * sim.Millisecond}))
		if !*quickFlag {
			specs = append(specs, cell(exp.WebSearch{Load: 0.6,
				Duration: 8 * sim.Millisecond, Drain: 4 * sim.Millisecond}))
		}
	}

	suite := exp.Suite{Specs: specs, Workers: *workersFlag}
	results, err := suite.Run()
	check(err)

	fmt.Println("PowerTCP γ sweep — reaction speed vs noise sensitivity")
	header := fmt.Sprintf("%-6s %14s %14s %12s %8s", "γ",
		"incast peak", "incast tail", "goodput", "jain")
	if !*quickFlag {
		header += fmt.Sprintf(" %12s %12s", "ws short", "ws long")
	}
	fmt.Println(header)

	for i, g := range gammas {
		ic, fr := results[i*perRow], results[i*perRow+1]
		row := fmt.Sprintf("%-6.2f %12.0fKB %12.1fKB %10.1fG %8.3f", g, scalar(ic, "peak_queue_kb"),
			scalar(ic, "tail_mean_queue_kb"), scalar(ic, "avg_goodput_gbps"), scalar(fr, "jain"))
		if !*quickFlag {
			ws := results[i*perRow+2]
			row += fmt.Sprintf(" %12.1f %12.1f", scalar(ws, "short_p999"), scalar(ws, "long_p999"))
		}
		fmt.Println(row)
	}
}

// scalar reads a cell's metric by name; a missing key exits 1 naming
// the experiment, scheme and key, so a renamed metric cannot print a 0.
func scalar(r *scenario.Result, name string) float64 {
	v, err := r.Lookup(name)
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}
