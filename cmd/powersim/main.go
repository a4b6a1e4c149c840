// Command powersim runs a single experiment from the registry — or a
// composed scenario — and prints a human-readable summary: the quick
// way to poke at one configuration without regenerating whole figures.
// Any registered experiment and scheme (including the homa-oc<N> and
// retcp-<µs> families) resolves by name; γ and DT-α ablations compose
// via flags. A flag the chosen experiment does not consume is an error,
// not a silently ignored knob.
//
// The -scenario mode runs assemblies of the composable scenario API
// (topology × traffic × events × probes) that the experiment presets
// cannot express: mixed traffic-class schemes, an incast pulse during a
// failover, a mid-run load step. 'powersim -scenario list' names them.
//
// The -fuzz mode drives internal/fuzzlab outside `go test`: generate a
// scenario from a seed, run the invariant battery over it, sweep seed
// bands (time-budgeted with -deep), or -replay a pinned corpus spec or a
// repro bundle.
//
// Examples:
//
//	powersim -exp incast -scheme powertcp -fanin 32
//	powersim -exp websearch -scheme hpcc -load 0.6 -servers 8
//	powersim -exp fairness -scheme homa-oc3
//	powersim -exp rdcn -scheme retcp-1800 -pktgbps 50
//	powersim -exp incast -scheme powertcp -gamma 0.5 -json
//	powersim -exp list
//	powersim -scenario incast-failover -scheme powertcp
//	powersim -scenario load-step -scheme dcqcn -json
//	powersim -fuzz -seed 7
//	powersim -fuzz -seed 1 -seeds 200
//	powersim -fuzz -deep -minutes 30 -pin /tmp/repros
//	powersim -replay internal/fuzzlab/testdata/corpus/drop-undercount.json
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/exp"
	"repro/internal/scenario"
)

// flags is the set the flag variables below are bound to by
// defineFlags: flag.CommandLine in main, a fresh set per case in tests.
var flags *flag.FlagSet

var expFlag, scenarioFlag, fidelityFlag, schemeFlag, routeFlag, replayFlag, pinFlag *string
var fanInFlag, serversFlag, partsFlag, flowsFlag, seedsFlag *int
var seedFlag, pktGbps, icSizeFlag *int64
var loadFlag, durFlag, icRateFlag, gammaFlag, alphaFlag, failMsFlag, restoreMs, reconvMs, minutesFlag *float64
var jsonFlag, tsvFlag, fuzzFlag, deepFlag *bool

func defineFlags(fs *flag.FlagSet) {
	flags = fs
	expFlag = fs.String("exp", "incast", "experiment name from the registry; 'list' prints all")
	scenarioFlag = fs.String("scenario", "", "run a composed scenario instead of a registry experiment; 'list' prints all")
	fidelityFlag = fs.String("fidelity", "", "background fidelity for scenarios that take it: packet (default) or fluid (hybrid co-simulation)")
	schemeFlag = fs.String("scheme", "powertcp", "CC scheme (dcqcn, dctcp, homa, hpcc, powertcp, reno, theta-powertcp, timely, homa-oc<N>, retcp-<µs>)")
	fanInFlag = fs.Int("fanin", 0, "incast fan-in")
	loadFlag = fs.Float64("load", 0, "websearch ToR-uplink load")
	serversFlag = fs.Int("servers", 0, "servers per ToR (32 = paper scale)")
	durFlag = fs.Float64("ms", 0, "override experiment duration (milliseconds)")
	seedFlag = fs.Int64("seed", 1, "RNG seed")
	partsFlag = fs.Int("parts", 0, "step the fabric's own shards (one a pod or leaf) on N workers; byte-identical results")
	pktGbps = fs.Int64("pktgbps", 0, "RDCN packet-network bandwidth (Gbps)")
	icRateFlag = fs.Float64("icrate", 0, "websearch incast request rate (req/s)")
	icSizeFlag = fs.Int64("icmb", 2, "websearch incast request size (MB)")
	gammaFlag = fs.Float64("gamma", 0, "override PowerTCP-family γ (ablation)")
	alphaFlag = fs.Float64("alpha", 0, "override the Dynamic-Thresholds α (ablation)")
	routeFlag = fs.String("route", "", "multipath strategy: ecmp, single, wecmp (multipath lab)")
	failMsFlag = fs.Float64("failms", 0, "failover: link failure time (milliseconds)")
	restoreMs = fs.Float64("restorems", 0, "failover: link restore time (milliseconds; negative keeps it down)")
	reconvMs = fs.Float64("reconvms", 0, "failover: control-plane reconvergence delay (milliseconds)")
	flowsFlag = fs.Int("flows", 0, "flow count (fairness, failover)")
	jsonFlag = fs.Bool("json", false, "emit the result envelope as JSON")
	tsvFlag = fs.Bool("tsv", false, "emit the result envelope as TSV blocks")

	fuzzFlag = fs.Bool("fuzz", false, "fuzz mode: generate scenarios from seeds and check every invariant (internal/fuzzlab)")
	deepFlag = fs.Bool("deep", false, "fuzz: sweep seeds until the -minutes wall-clock budget instead of a fixed count")
	minutesFlag = fs.Float64("minutes", 10, "fuzz: wall-clock budget of a -deep sweep")
	seedsFlag = fs.Int("seeds", 1, "fuzz: how many consecutive seeds to check, starting at -seed")
	replayFlag = fs.String("replay", "", "fuzz: re-check a pinned spec JSON file or guard repro bundle and emit its result")
	pinFlag = fs.String("pin", "", "fuzz: directory to write shrunk repros into (ready for testdata/corpus)")
}

func main() {
	defineFlags(flag.CommandLine)
	flag.Parse()
	if *expFlag == "list" || *scenarioFlag == "list" {
		fmt.Printf("experiments: %s\n", strings.Join(exp.ExperimentNames(), ", "))
		fmt.Printf("scenarios  : %s\n", strings.Join(scenarioNames(), ", "))
		fmt.Printf("schemes    : %s (plus homa-oc<N>, retcp-<µs>)\n", strings.Join(scenario.SchemeNames(), ", "))
		return
	}

	if *fuzzFlag || *replayFlag != "" {
		// Fuzz mode is self-contained: the generator derives everything
		// from the seed, so experiment knobs cannot apply.
		if stray := strayFlags("-fuzz", "-deep", "-minutes", "-seeds", "-seed", "-replay", "-pin", "-json", "-tsv"); len(stray) > 0 {
			fmt.Fprintf(os.Stderr, "powersim: fuzz mode does not consume %s (specs derive from the seed alone)\n",
				strings.Join(stray, ", "))
			os.Exit(2)
		}
		runFuzz()
		return
	}

	if *scenarioFlag != "" {
		// Composed scenarios carry their whole configuration; the same
		// no-silently-ignored-knobs rule as the experiment rows applies.
		allowed := []string{"-scenario", "-scheme", "-seed", "-json", "-tsv"}
		if scenarioTakesFidelity(*scenarioFlag) {
			allowed = append(allowed, "-fidelity")
		}
		if stray := strayFlags(allowed...); len(stray) > 0 {
			fmt.Fprintf(os.Stderr, "powersim: scenario %q does not consume %s (scenarios are fully self-configured)\n",
				*scenarioFlag, strings.Join(stray, ", "))
			os.Exit(2)
		}
		r, err := runScenario(*scenarioFlag, *schemeFlag, *seedFlag, *fidelityFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
			os.Exit(2)
		}
		emit(r)
		return
	}

	spec, err := experimentSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
		os.Exit(2)
	}
	r, err := exp.Run(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
		os.Exit(2)
	}
	emit(r)
}

// strayFlags lists the flags set on the command line that are not among
// allowed; both are spelled "-name".
func strayFlags(allowed ...string) []string {
	var stray []string
	flags.Visit(func(f *flag.Flag) {
		if !slices.Contains(allowed, "-"+f.Name) {
			stray = append(stray, "-"+f.Name)
		}
	})
	return stray
}

// emit prints one result envelope in the selected format.
func emit(r *scenario.Result) {
	switch {
	case *jsonFlag:
		if err := r.EncodeJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
			os.Exit(1)
		}
	case *tsvFlag:
		if err := r.EncodeTSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Printf("%s with %s (seed %d)\n", r.Experiment, r.Scheme, r.Seed)
		width := 0
		for _, name := range r.ScalarNames() {
			if len(name) > width {
				width = len(name)
			}
		}
		for _, name := range r.ScalarNames() {
			fmt.Printf("  %-*s : %g\n", width, name, r.Scalar(name))
		}
		for _, s := range r.Series {
			fmt.Printf("  series %s: %d samples\n", s.Name, len(s.Points))
		}
	}
}
