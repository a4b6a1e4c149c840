// Package exp holds the paper's evaluation (§4–§5, Appendix D) and the
// repository's extension scenarios as seven typed presets over
// internal/scenario: the paper's Incast, Fairness, WebSearch and RDCN,
// plus the multipath lab's Permutation, Asymmetry and Failover. Each is
// a parameter struct whose fields are exactly the knobs that experiment
// reads and whose zero fields take its defaults; its run assembles a
// declarative scenario.Scenario (Topology × Traffic × Events × Probes)
// with the experiment's figure-panel probe and hands it to the generic
// scenario.Run. A sweep over a knob is a Suite of cells, one per value
// (Fig. 7a/7b's slowdown-vs-load curve is WebSearch cells across loads).
// It exposes:
//
//   - Spec, the identity of one run — {Preset, Scheme, SchemeOpts, Seed,
//     Label} — executed by Run, and a Suite that executes many
//     concurrently over a GOMAXPROCS-sized worker pool.
//
// A run's whole result is a scenario.Result: each panel probe writes
// every number its figure prints as a named scalar or series, once, and
// its doc comment lists them. Readers fetch them by name
// (Result.Lookup, Result.SeriesNamed), so a figure redrawn from the
// JSON a golden pins or powersimd serves matches one drawn in process.
//
// A knob an experiment does not read is not a field of its struct, and
// neither is one no caller outside the tests turns: that value is a
// constant where it is used (Incast's pulse size and head start, the
// Asymmetry and Failover fabrics, every panel's sampling period).
// Value domains are enforced where a value is consumed: by the scenario
// component it is handed to (a load outside (0, 1], a negative size or
// count — the same checks a serialised scenario.Spec meets), and here
// only for the horizon parameters the presets add up and keep (Window,
// Drain). Schemes, the Result envelope and
// the lab harness are internal/scenario's; callers name them there.
//
// # Invariants
//
//   - Each Run builds its own network and sim.Engine, so suite results
//     are deterministic per seed regardless of worker count: a parallel
//     suite is byte-identical to a serial one
//     (TestSuiteParallelMatchesSerial), including under multipath
//     routing and scheduled link failures.
//   - The scenario presets reproduce the pre-redesign per-runner code
//     byte-for-byte: every registered experiment's seed-1 JSON matches
//     the recorded goldens (TestGoldenCompatibility,
//     testdata/golden/).
//   - Workload randomness is seeded independently of the scheme, so two
//     schemes at the same seed see the same trace.
//   - Packet pooling is an allocation strategy, never a model change:
//     pooled and pool-disabled runs encode to identical bytes
//     (TestSuitePooledMatchesUnpooled).
//
// cmd/figures renders figures, and the γ study, from suites;
// cmd/powersim runs a single spec — or a composed
// scenario — from flags; EXPERIMENTS.md records the experiment↔figure
// index and paper-vs-measured numbers.
package exp
