package analysis

import "strings"

// modulePath is the import-path prefix of this module.
const modulePath = "repro"

// SimPathPackages names every internal package on the simulation path —
// the code whose execution order, clock reads and RNG draws feed the
// fixed-seed ⇒ byte-identical-output guarantee. All four analyzers run
// over these. The meta-test in packages_test.go pins this list to the
// actual contents of internal/: a new internal package must be added
// here or to ExcludedPackages with a written reason, never silently
// skipped.
var SimPathPackages = []string{
	"buffer",    // Dynamic-Thresholds admission — decides drops
	"cc",        // congestion-control baselines — per-ACK control flow
	"core",      // PowerTCP / θ-PowerTCP laws — the paper's algorithms
	"exp",       // experiment registry + suite fan-out feeding Result encoders
	"fluid",     // RK4 fluid model — deterministic integration
	"fuzzlab",   // scenario generator/shrinker — seeded RNG, reproducible minimization
	"guard",     // run supervision — budgets trip at sim-time checkpoints, so no wall clock allowed
	"homa",      // HOMA transport — grants, resends
	"hybrid",    // fluid/packet coupling — exchange ticks are engine events, RK4 order fixed
	"link",      // ports, serialization, delivery ordering
	"monitor",   // cwnd recorder behind CwndProbe — its samples land in results
	"packet",    // packet struct + pool — recycling must not alter output
	"psim",      // parallel conservative-sync fabric — barrier order IS the output order
	"queue",     // FIFO rings on the hot path
	"rdcn",      // rotor calendar + reTCP, no fabric of its own (topo.RotorFabric)
	"route",     // ECMP/WCMP tables, BFS rebuilds, failure events
	"scenario",  // Topology×Traffic×Events×Probes execution + Result envelope
	"sim",       // the event engine itself — the clock everyone must use
	"stats",     // distributions/series aggregated into results
	"swtch",     // switch forwarding, hash-based path choice
	"telemetry", // INT hop records carried in packets
	"topo",      // fabric construction — wiring order fixes IDs; the rotor's slot timeline
	"transport", // flows, hosts, pacing, RTO
	"units",     // bitrate/size arithmetic used in every computation
	"workload",  // seeded traffic generators — the RNG discipline lives here
}

// ExcludedPackages maps internal packages that are deliberately outside
// the simulation-path determinism contract to the reason why. Every
// exclusion must carry a reason; the meta-test enforces that the union
// of SimPathPackages and ExcludedPackages is exactly the set of
// internal packages.
var ExcludedPackages = map[string]string{
	// The linter does not lint itself: analysis runs at development
	// time, never inside a simulation.
	"analysis": "powervet's own implementation; not simulation code",
	// serve is the HTTP boundary of powersimd: Retry-After hints,
	// admission control, and request timeouts are wall-clock concerns by
	// design. Nothing in it schedules onto a sim engine — runs execute
	// through guard, which stays on the sim-path list.
	"serve": "powersimd HTTP layer: wall-clock admission control and Retry-After live here, outside the sim path by design",
}

// IsSimPath reports whether importPath is a simulation-path package
// subject to the full analyzer suite.
func IsSimPath(importPath string) bool {
	rel, ok := strings.CutPrefix(importPath, modulePath+"/internal/")
	if !ok {
		return false
	}
	for _, p := range SimPathPackages {
		if rel == p {
			return true
		}
	}
	return false
}

// IsOutputPath reports whether importPath produces user-visible output
// from simulation results (the root package and the cmd tools). These
// run the ordering analyzers (detrange, resultorder, pooluse) so that
// encoders stay byte-deterministic, but not simclock: a CLI may
// legitimately read the wall clock for progress reporting.
func IsOutputPath(importPath string) bool {
	return importPath == modulePath || strings.HasPrefix(importPath, modulePath+"/cmd/")
}

// AnalyzersFor returns the analyzers that apply to importPath, nil when
// the package is out of scope.
func AnalyzersFor(importPath string) []*Analyzer {
	switch {
	case IsSimPath(importPath):
		return All()
	case IsOutputPath(importPath):
		return []*Analyzer{Detrange, Pooluse, Resultorder}
	default:
		return nil
	}
}
