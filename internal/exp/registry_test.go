package exp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The registry returns errors — never panics — for unknown names and
// malformed family parameters.
func TestResolveSchemeErrors(t *testing.T) {
	cases := []struct {
		name string
		want string // substring of the error
	}{
		{"bogus", "unknown scheme"},
		{"homa-oc0", "must be ≥1"},
		{"homa-oc-3", "must be ≥1"},
		{"homa-ocx", "malformed"},
		{"retcp-", "malformed"},
		{"retcp-0", "must be positive"},
		{"retcp-abc", "malformed"},
	}
	for _, c := range cases {
		_, err := scenario.ResolveScheme(c.name)
		if err == nil {
			t.Fatalf("ResolveScheme(%q) accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ResolveScheme(%q) = %v, want %q", c.name, err, c.want)
		}
	}
}

// Options validate their target scheme.
func TestSchemeOptionsRejectWrongTarget(t *testing.T) {
	if _, err := scenario.ResolveScheme(scenario.Homa, scenario.Gamma(0.5)); err == nil {
		t.Fatal("γ accepted on HOMA")
	}
	if _, err := scenario.ResolveScheme(scenario.PowerTCP, scenario.Gamma(1.5)); err == nil {
		t.Fatal("γ > 1 accepted")
	}
	if _, err := scenario.ResolveScheme(scenario.PowerTCP, scenario.Alpha(-1)); err == nil {
		t.Fatal("negative DT α accepted")
	}
}

// A composed γ override must reach the algorithm the scheme builds, α
// must reach the scheme's buffer configuration, and a family name's
// parameter must reach the scheme.
func TestSchemeOptionCompositionReachesAlgorithm(t *testing.T) {
	s, err := scenario.ResolveScheme(scenario.PowerTCP, scenario.Gamma(0.55), scenario.Alpha(2))
	if err != nil {
		t.Fatal(err)
	}
	alg, ok := s.Alg(1)[0].(*core.PowerTCP)
	if !ok {
		t.Fatalf("powertcp built %T", s.Alg(1)[0])
	}
	// The law keeps its configuration unexported; %+v prints it.
	if built := fmt.Sprintf("%+v", *alg); !strings.Contains(built, "Gamma:0.55 ") {
		t.Fatalf("built law = %s, want γ=0.55", built)
	}
	if s.DTAlpha != 2 {
		t.Fatalf("DT α = %v, want 2", s.DTAlpha)
	}

	th, err := scenario.ResolveScheme(scenario.ThetaPowerTCP, scenario.Gamma(0.4))
	if err != nil {
		t.Fatal(err)
	}
	talg, ok := th.Alg(1)[0].(*core.ThetaPowerTCP)
	if !ok {
		t.Fatalf("theta-powertcp built %T", th.Alg(1)[0])
	}
	if built := fmt.Sprintf("%+v", *talg); !strings.Contains(built, "Gamma:0.4 ") {
		t.Fatalf("theta built law = %s, want γ=0.4", built)
	}

	ho, err := scenario.ResolveScheme("homa-oc5")
	if err != nil {
		t.Fatal(err)
	}
	if ho.Overcommit != 5 {
		t.Fatalf("homa overcommit = %d", ho.Overcommit)
	}

	re, err := scenario.ResolveScheme("retcp-900")
	if err != nil {
		t.Fatal(err)
	}
	if re.PrebufferFor != 900*sim.Microsecond {
		t.Fatalf("prebuffer = %v", re.PrebufferFor)
	}
}

// An option-composed γ must actually change the simulation, matching the
// equivalent family-name resolution end to end.
func TestGammaOptionChangesRun(t *testing.T) {
	base := mustRun(t, Spec{Preset: Incast{FanIn: 10, Window: sim.Millisecond},
		Scheme: scenario.PowerTCP, Seed: 4})
	low := mustRun(t, Spec{Preset: Incast{FanIn: 10, Window: sim.Millisecond},
		Scheme: scenario.PowerTCP, SchemeOpts: []scenario.SchemeOption{scenario.Gamma(0.1)}, Seed: 4})
	if base.Scalar("tail_mean_queue_kb") == low.Scalar("tail_mean_queue_kb") &&
		base.Scalar("peak_queue_kb") == low.Scalar("peak_queue_kb") {
		t.Fatal("γ=0.1 produced a run identical to the default γ")
	}
}

// reTCP resolves globally (it's a legitimate rdcn scheme) but provides
// no per-flow algorithm builder; every other experiment must reject it
// with an error rather than crash on the nil builder.
func TestNonRDCNExperimentsRejectReTCP(t *testing.T) {
	for _, p := range []Preset{Incast{}, Fairness{}, WebSearch{}} {
		_, err := Run(Spec{Preset: p, Scheme: scenario.ReTCP600})
		if err == nil || !strings.Contains(err.Error(), "does not support") {
			t.Fatalf("%s accepted retcp-600: %v", p.Name(), err)
		}
	}
}

// Run reports a spec without a preset, and an unknown scheme, as errors,
// not panics. (An unknown experiment name cannot be written down in Go;
// cmd/powersim reports one typed at -exp.)
func TestRunUnknownExperiment(t *testing.T) {
	_, err := Run(Spec{Scheme: scenario.PowerTCP})
	if err == nil || !strings.Contains(err.Error(), "names no experiment") {
		t.Fatalf("err = %v", err)
	}
	_, err = Run(Spec{Preset: Incast{}, Scheme: "bogus-scheme"})
	if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("err = %v", err)
	}
}

// The registry is the seven presets, listed once each in name order.
func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"asymmetry", "failover", "fairness", "incast",
		"permutation", "rdcn", "websearch"}
	if got := ExperimentNames(); !slices.Equal(got, want) {
		t.Fatalf("ExperimentNames() = %v, want %v", got, want)
	}
}
