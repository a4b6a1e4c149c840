package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/fuzzlab"
	"repro/internal/guard"
	"repro/internal/scenario"
)

// runFuzz is the CLI face of internal/fuzzlab — replay and inspection
// outside `go test`.
//
//	powersim -fuzz -seed 7                 # one seed: generate, print, check
//	powersim -fuzz -seeds 200              # sweep 200 seeds from -seed
//	powersim -fuzz -deep -minutes 30       # sweep until the wall-clock budget
//	powersim -replay repro.json            # re-check a pinned spec or repro bundle, emit its result
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
// battery and emits its Result in the selected format — the way to
// inspect what a corpus entry actually measures, or to rerun a
// supervised failure from its repro bundle.
func replaySpec(path string) {
	r, vs, err := replay(path)
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

// replay reads a replay file, checks it through the full invariant
// battery and runs it.
func replay(path string) (*scenario.Result, []fuzzlab.Violation, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	sp, parts, axis, err := decodeReplay(b)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	vs, err := fuzzlab.Check(sp, fuzzlab.Options{Parts: axis})
	if err != nil {
		return nil, nil, err
	}
	sc, err := sp.Build(parts)
	if err != nil {
		return nil, nil, err
	}
	r, err := scenario.Run(sc)
	return r, vs, err
}

// decodeReplay decodes a replay file: a guard.ReproBundle, run at the
// seed and partition count it records, or else a bare canonical spec (a
// fuzz corpus entry), run at one partition. axis is the partition counts
// the serial run is compared with: the spec's own, plus a bundle's.
func decodeReplay(b []byte) (sp *scenario.Spec, parts int, axis []int, err error) {
	var bundle guard.ReproBundle
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if dec.Decode(&bundle) != nil || bundle.Spec == nil {
		sp, err := scenario.DecodeSpec(b)
		if err != nil {
			return nil, 0, nil, err
		}
		return sp, 1, sp.PartsAxis(), nil
	}
	if bundle.V != scenario.SpecVersion {
		return nil, 0, nil, fmt.Errorf("unsupported bundle version %d (current %d)", bundle.V, scenario.SpecVersion)
	}
	if sp, err = scenario.DecodeSpec(bundle.Spec); err != nil {
		return nil, 0, nil, err
	}
	sp.Seed, parts = bundle.Seed, max(1, bundle.Parts)
	axis = sp.PartsAxis()
	if !slices.Contains(axis, parts) {
		axis = append(axis, parts)
	}
	fmt.Fprintf(os.Stderr, "powersim: bundle at seed %d, %d partition(s), recorded error: %s\n", sp.Seed, parts, bundle.Error)
	return sp, parts, axis, nil
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
