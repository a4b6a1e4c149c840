package exp

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// §3.3: γ balances reaction time against sensitivity to noise. A very
// small γ reacts sluggishly — during an incast the queue peak stays high
// for longer — while the recommended γ=0.9 cuts within roughly an RTT.
// We compare the tail-mean queue after the burst.
func TestGammaTradeoff(t *testing.T) {
	run := func(gamma float64) *scenario.Result {
		return mustRun(t, Spec{Preset: Incast{FanIn: 10, Window: 3 * sim.Millisecond},
			Scheme: scenario.PowerTCP, SchemeOpts: []scenario.SchemeOption{scenario.Gamma(gamma)}, Seed: 4})
	}
	slow := scalar(t, run(0.1), "tail_mean_queue_kb")
	rec := run(0.9)
	if tail := scalar(t, rec, "tail_mean_queue_kb"); tail > slow+1 {
		t.Fatalf("γ=0.9 resolved worse than γ=0.1: %.1fKB vs %.1fKB", tail, slow)
	}
	// Both must still complete the incast and keep goodput.
	if g := scalar(t, rec, "avg_goodput_gbps"); g < 15 {
		t.Fatalf("γ=0.9 goodput = %v", g)
	}
}

// The γ option must rebuild the builder for both PowerTCP variants.
func TestGammaOptionBuilders(t *testing.T) {
	for _, name := range []string{scenario.PowerTCP, scenario.ThetaPowerTCP} {
		s, err := scenario.ResolveScheme(name, scenario.Gamma(0.5))
		if err != nil {
			t.Fatalf("ResolveScheme(%s, Gamma(0.5)): %v", name, err)
		}
		if s.Gamma != 0.5 || s.Alg == nil {
			t.Fatalf("ResolveScheme(%s, Gamma(0.5)) = %+v", name, s)
		}
		if algs := s.Alg(2); len(algs) != 2 || algs[0] == nil || algs[0] == algs[1] {
			t.Fatalf("builder returned %v, want two distinct laws", algs)
		}
	}
}
