// Package exp is the experiment registry behind the paper's evaluation
// (§4–§5, Appendix D) and the repository's extension scenarios. Since
// the scenario redesign it is a thin, validated layer over
// internal/scenario: every registered experiment — the paper's incast,
// fairness, websearch, load-sweep and rdcn, plus the multipath lab's
// permutation, asymmetry and failover — is a preset that assembles a
// declarative scenario.Scenario (Topology × Traffic × Events × Probes)
// and hands it to the generic scenario.Run. It exposes:
//
//   - The experiment registry: NewSpec + Run execute one named preset,
//     and a Suite executes many concurrently over a GOMAXPROCS-sized
//     worker pool. Specs validate: each experiment declares the Spec
//     knobs it consumes (Experiment.Fields), and assigning any other
//     knob is an error instead of a silently ignored no-op
//     (Spec.Validate, wired into Run and therefore Suite.Run).
//   - Re-exports of the scenario layer's scheme registry
//     (ResolveScheme with γ / DT α / overcommitment / prebuffering
//     options), Result envelope (scalar metrics map + named series,
//     JSON/TSV encoders), and lab harness, so existing callers keep one
//     import.
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
// cmd/figures renders figures from suites; cmd/sweep runs the γ study
// as one suite; cmd/powersim runs a single spec — or a composed
// scenario — from flags; EXPERIMENTS.md records the experiment↔figure
// index and paper-vs-measured numbers.
package exp
