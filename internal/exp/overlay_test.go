package exp

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestWebSearchIncastOverlay(t *testing.T) {
	cell := WebSearch{Load: 0.1, ServersPerTor: 4,
		Duration: 3 * sim.Millisecond, Drain: 2 * sim.Millisecond}
	plain := mustRun(t, Spec{Preset: cell, Scheme: scenario.PowerTCP, Seed: 5}).Raw.(*WebSearchResult)
	const fanIn = 8
	cell.IncastRate, cell.IncastSize, cell.IncastFanIn = 2000 /* ≈6 requests in the horizon */, 1<<20, fanIn
	burst := mustRun(t, Spec{Preset: cell, Scheme: scenario.PowerTCP, Seed: 5}).Raw.(*WebSearchResult)
	if burst.Started <= plain.Started {
		t.Fatalf("incast overlay added no flows: %d vs %d", burst.Started, plain.Started)
	}
	// Each request fans out to IncastFanIn responders.
	extra := burst.Started - plain.Started
	if extra%fanIn != 0 {
		t.Fatalf("overlay flows %d not a multiple of fan-in %d", extra, fanIn)
	}
}

func TestLoadSweepShapes(t *testing.T) {
	res := mustRun(t, Spec{Preset: LoadSweep{Loads: []float64{0.1, 0.3}, ServersPerTor: 4,
		Duration: 3 * sim.Millisecond, Drain: 2 * sim.Millisecond},
		Scheme: scenario.PowerTCP, Seed: 6})
	rs := res.Raw.([]*WebSearchResult)
	if len(rs) != 2 || rs[0].Load != 0.1 || rs[1].Load != 0.3 {
		t.Fatalf("sweep shape wrong: %+v", rs)
	}
	if rs[1].Started <= rs[0].Started {
		t.Fatal("higher load generated fewer flows")
	}
	// The envelope exposes the sweep as load-indexed series.
	if len(res.Series) != 2 || res.Series[0].XLabel != "load" {
		t.Fatalf("sweep series wrong: %+v", res.Series)
	}
	if got := len(res.Series[0].Points); got != 2 {
		t.Fatalf("sweep series has %d points", got)
	}
}

func TestFairnessHomaOvercommitRuns(t *testing.T) {
	for _, oc := range []int{1, 4} {
		res := mustRun(t, Spec{Preset: Fairness{Window: 4 * sim.Millisecond},
			Scheme: scenario.Homa, SchemeOpts: []scenario.SchemeOption{scenario.Overcommit(oc)}, Seed: 3})
		r := res.Raw.(*FairnessResult)
		if len(r.T) == 0 {
			t.Fatalf("oc %d: empty series", oc)
		}
	}
}
