// Command benchmark is the repository's performance benchmark, declared
// by BENCHMARK.json at the module root and described in README.md next
// to this file.
//
// It runs four workloads — websearch64, fattree10k, reconverge4k and
// serve-mix — each as one untimed cold pass followed by timed
// repetitions of byte-identical work, and reports every end-to-end
// metric as a median over the repetitions. With -trace 1 it instead
// records spans around its own calls into each layer's public API, runs
// a ladder of per-layer micro-drivers, and reports the per-layer
// metrics.
//
//	go run ./benchmark                                   # all workloads, a table
//	go run ./benchmark -workload websearch64 -seed 7     # one workload, one seed
//	go run ./benchmark -workload fattree10k -trace 1 -trace-out spans.json
//	go run ./benchmark -out set-a.jsonl                  # append the results to a file
//	go run ./benchmark -agree set-a.jsonl set-b.jsonl    # compare two such files
//
// The last line of standard output of a -workload run is one JSON object
// {"correct", "attempted", "failed", "metrics"}; everything else goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// workloadNames is the run order of a whole invocation.
var workloadNames = []string{"websearch64", "fattree10k", "reconverge4k", "serve-mix"}

var simGens = map[string]func(seed int64, smoke bool) *simInput{
	"websearch64":  genWebsearch64,
	"fattree10k":   genFattree10k,
	"reconverge4k": genReconverge4k,
}

// runWorkload runs one workload in the mode c asks for.
func runWorkload(name string, c runCfg) (*outcome, error) {
	gen, sim := simGens[name]
	if !sim && name != "serve-mix" {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	var (
		o   *outcome
		err error
	)
	switch {
	case sim && c.trace:
		o, err = traceSim(gen, c)
	case sim:
		o, err = measureSim(gen, c)
	case c.trace:
		o, err = traceServe(c)
	default:
		o, err = measureServe(c)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	o.Trace = c.trace
	return o, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the input generators")
		secs     = flag.Float64("seconds", 0, "seconds of timed repetitions per workload (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 records spans, runs the layer ladder and reports the per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans to this file on exit")
		smoke    = flag.Bool("smoke", false, "toy scale: 16-host fabrics, 200 requests, 2 repetitions")
		out      = flag.String("out", "", "append each workload's result to this file, one JSON object a line")
		agree    = flag.Bool("agree", false, "compare two -out files against the bounds in BENCHMARK.json: -agree a b")
	)
	flag.Parse()

	decl, err := loadDeclaration("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *agree {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree takes two result files"))
		}
		ok, err := agreeFiles(os.Stdout, decl, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	c := runCfg{seed: *seed, seconds: *secs, smoke: *smoke, trace: *trace != 0}
	if c.seconds <= 0 && !c.smoke {
		c.seconds = float64(decl.RunSeconds)
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	host := readHost()
	// A -workload run keeps standard output for its one result line.
	human := os.Stdout
	if *workload != "" {
		human = os.Stderr
	}
	spans := &tracer{}
	for _, name := range names {
		o, err := runWorkload(name, c)
		if err != nil {
			fatal(err)
		}
		o.Host = host
		if err := decl.check(o); err != nil {
			fatal(err)
		}
		report(human, decl, o)
		if *out != "" {
			if err := appendJSON(*out, o); err != nil {
				fatal(err)
			}
		}
		if o.spans != nil {
			spans.merge(o.spans, -1)
		}
		if *workload != "" {
			line, err := json.Marshal(struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}{o.Failed == 0, o.Attempted, o.Failed, o.Metrics})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s\n", line)
		}
	}
	if *traceOut != "" && len(spans.spans) > 0 {
		if err := spans.write(*traceOut); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func appendJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints one workload's outcome for a person: identities first,
// then every metric with the direction and bound BENCHMARK.json gives
// it.
func report(w *os.File, decl *declaration, o *outcome) {
	mode := "end-to-end"
	if o.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  %s  K=%d  ops=%d  attempted=%d failed=%d\n",
		o.Workload, o.Seed, mode, o.K, o.Ops, o.Attempted, o.Failed)
	fmt.Fprintf(w, "   input  sha256 %s\n   result sha256 %s\n", o.InputDigest, o.ResultDigest)
	fmt.Fprintf(w, "   calibration loop (reference %.3f s):", calibRef)
	for _, c := range o.Calib {
		fmt.Fprintf(w, " %.3f", c)
	}
	fmt.Fprintln(w)
	if len(o.RepRun) > 0 {
		fmt.Fprintf(w, "   repetitions, wall s:")
		for _, r := range o.RepRun {
			fmt.Fprintf(w, " %.3f", r)
		}
		fmt.Fprintln(w)
	}
	if len(o.Guards) > 0 {
		fmt.Fprintf(w, "   model guards:")
		for _, n := range guardNames {
			fmt.Fprintf(w, " %s=%v", n, o.Guards[n])
		}
		fmt.Fprintln(w)
	}
	for _, p := range o.Problems {
		fmt.Fprintf(w, "   PROBLEM %s\n", p)
	}
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.Metrics[n]
		d := decl.lookup(n)
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf(", bound %.2f", d.Bound)
		}
		fmt.Fprintf(w, "   %-32s %14.6g %-6s (%s is better%s)\n", n, m.Value, m.Unit, d.Better, bound)
	}
}
