package fuzzlab

import (
	"fmt"
	"io"

	"repro/internal/scenario"
)

// Finding is one violating seed of a Sweep: the generated spec's
// violations plus its shrunk minimal repro.
type Finding struct {
	Seed       int64
	Violations []Violation
	Shrunk     scenario.Spec
}

// Report summarizes one Sweep.
type Report struct {
	// Checked counts the seeds actually run (a stop predicate may cut
	// the sweep short of Seeds).
	Checked int
	// GenErrors counts seeds whose generated spec failed to build or
	// run — always a generator bug, reported but not shrunk.
	GenErrors int
	Findings  []Finding
}

// Sweep checks generated specs for seeds start, start+1, … until n
// seeds ran or stop returns true (stop is consulted between seeds; nil
// never stops — deadline policy belongs to the caller, since this
// package is sim-path code and takes no wall-clock readings). Every
// violating spec is shrunk under the same options before it is
// reported. Progress lines go to w when non-nil.
func Sweep(start int64, n int, opts Options, stop func() bool, w io.Writer) Report {
	var rep Report
	for i := 0; i < n; i++ {
		if stop != nil && stop() {
			break
		}
		seed := start + int64(i)
		sp := Generate(seed)
		vs, err := Check(&sp, opts)
		rep.Checked++
		if err != nil {
			rep.GenErrors++
			if w != nil {
				fmt.Fprintf(w, "seed %d: generator emitted an invalid spec: %v\n", seed, err)
			}
			continue
		}
		if len(vs) == 0 {
			continue
		}
		if w != nil {
			for _, v := range vs {
				fmt.Fprintf(w, "seed %d: VIOLATION %s\n", seed, v)
			}
			fmt.Fprintf(w, "seed %d: shrinking…\n", seed)
		}
		shrunk := Shrink(sp, func(c *scenario.Spec) bool {
			cvs, cerr := Check(c, opts)
			return cerr == nil && len(cvs) > 0
		})
		rep.Findings = append(rep.Findings, Finding{Seed: seed, Violations: vs, Shrunk: shrunk})
		if w != nil {
			fmt.Fprintf(w, "seed %d: shrunk to %d traffic component(s), %d event(s)\n",
				seed, len(shrunk.Traffic), len(shrunk.Events))
		}
	}
	return rep
}
