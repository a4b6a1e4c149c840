package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/fuzzlab"
	"repro/internal/scenario"
)

// runFuzz is the CLI face of internal/fuzzlab — replay and inspection
// outside `go test`.
//
//	powersim -fuzz -seed 7                 # one seed: generate, print, check
//	powersim -fuzz -seeds 200              # sweep 200 seeds from -seed
//	powersim -fuzz -deep -minutes 30       # sweep until the wall-clock budget
//	powersim -fuzz -replay repro.json      # re-check a pinned spec, emit its result
//
// Violating seeds are shrunk automatically; the minimal repro prints to
// stdout and, with -pin DIR, is written there ready to commit under
// internal/fuzzlab/testdata/corpus. Exit status 1 means findings.
func runFuzz() {
	if *replayFlag != "" {
		replaySpec(*replayFlag)
		return
	}

	n := *seedsFlag
	var stop func() bool
	if *deepFlag {
		// The deep sweep is budgeted by wall clock, not seed count; the
		// time policy lives here because fuzzlab itself is sim-path code
		// and takes no wall-clock readings.
		if !seedsSet() {
			n = math.MaxInt32
		}
		deadline := time.Now().Add(time.Duration(*minutesFlag * float64(time.Minute)))
		stop = func() bool { return time.Now().After(deadline) }
	}
	if !*deepFlag && n == 1 {
		// Single-seed inspection: show what the generator derives before
		// checking it.
		sp := fuzzlab.Generate(*seedFlag)
		os.Stdout.Write(fuzzlab.Canonical(&sp))
	}
	fmt.Fprintf(os.Stderr, "powersim: fuzzing %d seed(s) from %d\n", n, *seedFlag)
	rep := fuzzlab.Sweep(*seedFlag, n, fuzzlab.Options{}, stop, os.Stderr)
	fmt.Fprintf(os.Stderr, "powersim: %d seed(s) checked, %d generator error(s), %d finding(s)\n",
		rep.Checked, rep.GenErrors, len(rep.Findings))
	for i := range rep.Findings {
		f := &rep.Findings[i]
		for _, v := range f.Violations {
			fmt.Fprintf(os.Stderr, "seed %d: %s\n", f.Seed, v)
		}
		os.Stdout.Write(fuzzlab.Canonical(&f.Shrunk))
		if *pinFlag != "" {
			path, err := fuzzlab.WriteRepro(*pinFlag, &f.Shrunk)
			if err != nil {
				fmt.Fprintf(os.Stderr, "powersim: pinning repro: %v\n", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "seed %d: repro pinned at %s\n", f.Seed, path)
		}
	}
	if len(rep.Findings) > 0 || rep.GenErrors > 0 {
		os.Exit(1)
	}
}

// replaySpec re-checks one pinned spec file through the full invariant
// battery and emits its serial Result in the selected format — the way
// to inspect what a corpus entry actually measures.
func replaySpec(path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
		os.Exit(2)
	}
	var sp scenario.Spec
	if err := json.Unmarshal(b, &sp); err != nil {
		fmt.Fprintf(os.Stderr, "powersim: parsing %s: %v\n", path, err)
		os.Exit(2)
	}
	vs, err := fuzzlab.Check(&sp, fuzzlab.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
		os.Exit(2)
	}
	sc, err := sp.Build(1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
		os.Exit(2)
	}
	r, err := scenario.Run(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
		os.Exit(2)
	}
	emit(r)
	for _, v := range vs {
		fmt.Fprintf(os.Stderr, "powersim: VIOLATION %s\n", v)
	}
	if len(vs) > 0 {
		os.Exit(1)
	}
}

// seedsSet reports whether -seeds was given explicitly (the deep sweep
// otherwise ignores its default in favor of the time budget).
func seedsSet() bool {
	set := false
	flags.Visit(func(f *flag.Flag) {
		if f.Name == "seeds" {
			set = true
		}
	})
	return set
}
