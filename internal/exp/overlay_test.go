package exp

import (
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestWebSearchIncastOverlay(t *testing.T) {
	cell := WebSearch{Load: 0.1, ServersPerTor: 4,
		Duration: 3 * sim.Millisecond, Drain: 2 * sim.Millisecond}
	plain := scalar(t, mustRun(t, Spec{Preset: cell, Scheme: scenario.PowerTCP, Seed: 5}), "started")
	cell.IncastRate, cell.IncastSize = 2000 /* ≈6 requests in the horizon */, 1<<20
	burst := scalar(t, mustRun(t, Spec{Preset: cell, Scheme: scenario.PowerTCP, Seed: 5}), "started")
	if burst <= plain {
		t.Fatalf("incast overlay added no flows: %v vs %v", burst, plain)
	}
	// Each request fans out to webSearchFanIn responders.
	extra := int(burst - plain)
	if extra%webSearchFanIn != 0 {
		t.Fatalf("overlay flows %d not a multiple of fan-in %d", extra, webSearchFanIn)
	}
}

// Fig. 7a/7b's slowdown-vs-load curve is a Suite of WebSearch cells, one
// per load: each suite cell is the standalone run at that load and seed,
// and the higher load starts more flows.
func TestLoadSweepShapes(t *testing.T) {
	loads := []float64{0.1, 0.3}
	var specs []Spec
	for _, load := range loads {
		specs = append(specs, Spec{Preset: WebSearch{Load: load, ServersPerTor: 4,
			Duration: 3 * sim.Millisecond, Drain: 2 * sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 6})
	}
	cells, err := RunSuite(specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		if !reflect.DeepEqual(cells[i], mustRun(t, spec)) {
			t.Fatalf("suite cell at load %v differs from its standalone run", loads[i])
		}
	}
	if scalar(t, cells[1], "started") <= scalar(t, cells[0], "started") {
		t.Fatal("higher load generated fewer flows")
	}
}

func TestFairnessHomaOvercommitRuns(t *testing.T) {
	for _, sc := range []string{"homa-oc1", "homa-oc4"} {
		res := mustRun(t, Spec{Preset: Fairness{Window: 4 * sim.Millisecond}, Scheme: sc, Seed: 3})
		if len(points(t, res, "flow1_gbps")) == 0 {
			t.Fatalf("%s: empty series", sc)
		}
	}
}
