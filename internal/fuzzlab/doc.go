// Package fuzzlab is the scenario fuzzing and invariant lab: a seeded,
// shrinkable generator of well-formed scenario.Scenario values plus a
// metamorphic invariant checker that runs each generated scenario and
// asserts properties no golden file can express — exact end-to-end byte
// conservation, zero black-holed packets on failure-free timelines,
// aggregate goodput bounded by receiver capacity, per-scheme Jain
// fairness floors on symmetric permutations, and byte-identical Results
// across partition counts (the PDES fabric's central contract).
//
// On a violation, a deterministic greedy shrinker minimizes the
// offending scenario.Spec — dropping traffic components and events, shrinking
// topology dims, simplifying values — re-checking at every step, and
// the canonical JSON repro is pinned under testdata/corpus/ as a
// regression test. Three entry points exist: the tier-1 `go test`
// corpus mode, the native `go test -fuzz=FuzzScenario` harness feeding
// generator seeds, and the Sweep deep mode driven by the nightly CI job
// and `powersim -fuzz -deep`.
package fuzzlab
