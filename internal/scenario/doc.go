// Package scenario is the composition layer over the simulation core:
// an experiment is a declarative Scenario value with four orthogonal
// axes — Topology (star / fat-tree / leaf-spine / rotor fabrics with a
// routing strategy), Traffic (a list of typed workload components:
// Poisson×CDF, incast pulses, permutations, fixed staggered flows —
// each optionally running its own congestion-control scheme), Events (a
// timeline of link failures, repairs, and injected traffic, applied
// with control-plane reconvergence), and Probes (pluggable samplers
// that write scalars and series into the common Result envelope).
//
// One generic Run executes any such assembly: it builds the fabric,
// launches every traffic component in order, schedules the timeline,
// installs the probes, drives the engine to the horizon, and lets each
// probe finalize its metrics. The per-figure experiments of the paper
// (internal/exp) are thin presets that each build one Scenario value
// and Run it, so a new scenario — two traffic classes under different schemes, an incast
// pulse during a failover, a load step mid-run — is a value, not a new
// runner file. This mirrors how NS-2 (whose scheduler lineage
// internal/sim follows, see PERF.md) gets its scenario diversity from a
// composition layer rather than bespoke drivers.
//
// Everything is deterministic: traffic components derive their RNG from
// Scenario.Seed plus a per-component offset, events run on the
// simulation engine, and probes only observe — identical scenarios
// produce byte-identical Results.
package scenario
