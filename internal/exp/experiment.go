package exp

import (
	"fmt"
	"strings"

	"repro/internal/guard"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Spec is the identity of one run: which experiment, under which
// scheme, at which seed. The experiment's own parameters travel inside
// the Preset value, so a knob an experiment does not read cannot be
// written down.
type Spec struct {
	// Preset is one of the seven experiment parameter structs (Incast,
	// Fairness, WebSearch, RDCN, Permutation, Asymmetry, Failover); its
	// zero fields take that experiment's defaults.
	Preset Preset
	Scheme string
	// SchemeOpts composes ablation options (scenario.Gamma, Alpha) onto
	// the scheme at resolution time.
	SchemeOpts []scenario.SchemeOption
	// Seed drives workload and switch randomness.
	Seed int64
	// Label distinguishes specs that would otherwise summarize
	// identically (e.g. sweep cells); it is carried into the Result.
	Label string
}

// Preset is one registered experiment of the paper's evaluation with its
// parameters filled in. Each run builds its own network and engine: the
// Suite runs specs concurrently.
type Preset interface {
	// Name is the experiment's registry key ("incast", "websearch", ...).
	Name() string
	run(seed int64, scheme scenario.Scheme) (*scenario.Result, error)
}

// presets lists the registered experiments by name order, each at its
// defaults.
var presets = []Preset{
	Asymmetry{}, Failover{}, Fairness{}, Incast{},
	Permutation{}, RDCN{}, WebSearch{},
}

// ExperimentNames returns the registered experiment names, sorted.
func ExperimentNames() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.Name()
	}
	return names
}

// Run resolves the spec's scheme and executes its preset on an isolated
// engine. It is safe to call concurrently with distinct specs — the
// Suite does exactly that.
func Run(s Spec) (*scenario.Result, error) {
	if s.Preset == nil {
		return nil, fmt.Errorf("exp: spec names no experiment (Preset is one of: %s)",
			strings.Join(ExperimentNames(), ", "))
	}
	name := s.Preset.Name()
	scheme, err := scenario.ResolveScheme(s.Scheme, s.SchemeOpts...)
	if err != nil {
		return nil, fmt.Errorf("exp: experiment %q: %w", name, err)
	}
	// Panic capture around the run body: a crash in a model or probe
	// surfaces as a typed *guard.PanicError instead of unwinding through
	// whoever called Run — which in a Suite would take every sibling
	// spec's worker down with it.
	r, err := guard.Capture(func() (*scenario.Result, error) { return s.Preset.run(s.Seed, scheme) })
	if err != nil {
		return nil, fmt.Errorf("exp: experiment %q scheme %q: %w", name, scheme.Name, err)
	}
	r.Experiment = name
	r.Scheme = scheme.Name
	r.Label = s.Label
	r.Seed = s.Seed
	return r, nil
}

// span is one horizon or sampling parameter a preset consumes itself.
type span struct {
	name string
	d    sim.Duration
}

// checkSpans rejects a negative Window or Drain. The presets add these
// into the run horizon and hand them to their own panel probes, so no
// scenario component sees the raw value; every other parameter is
// checked by the scenario component that reads it.
func checkSpans(spans ...span) error {
	for _, s := range spans {
		if s.d < 0 {
			return fmt.Errorf("%s %v is negative", s.name, s.d)
		}
	}
	return nil
}
