package exp

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestWebSearchIncastOverlay(t *testing.T) {
	cell := WebSearch{Load: 0.1, ServersPerTor: 4,
		Duration: 3 * sim.Millisecond, Drain: 2 * sim.Millisecond}
	plain := scalar(t, mustRun(t, Spec{Preset: cell, Scheme: scenario.PowerTCP, Seed: 5}), "started")
	const fanIn = 8
	cell.IncastRate, cell.IncastSize, cell.IncastFanIn = 2000 /* ≈6 requests in the horizon */, 1<<20, fanIn
	burst := scalar(t, mustRun(t, Spec{Preset: cell, Scheme: scenario.PowerTCP, Seed: 5}), "started")
	if burst <= plain {
		t.Fatalf("incast overlay added no flows: %v vs %v", burst, plain)
	}
	// Each request fans out to IncastFanIn responders.
	extra := int(burst - plain)
	if extra%fanIn != 0 {
		t.Fatalf("overlay flows %d not a multiple of fan-in %d", extra, fanIn)
	}
}

// A sweep point is the standalone WebSearch cell at that load and seed.
func TestLoadSweepShapes(t *testing.T) {
	loads := []float64{0.1, 0.3}
	res := mustRun(t, Spec{Preset: LoadSweep{Loads: loads, ServersPerTor: 4,
		Duration: 3 * sim.Millisecond, Drain: 2 * sim.Millisecond},
		Scheme: scenario.PowerTCP, Seed: 6})
	// The envelope exposes the sweep as load-indexed series.
	if len(res.Series) != 2 || res.Series[0].XLabel != "load" {
		t.Fatalf("sweep series wrong: %+v", res.Series)
	}
	var started []float64
	for i, load := range loads {
		cell := mustRun(t, Spec{Preset: WebSearch{Load: load, ServersPerTor: 4,
			Duration: 3 * sim.Millisecond, Drain: 2 * sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 6})
		for _, name := range []string{"short_p999", "long_p999"} {
			pts := points(t, res, name)
			if len(pts) != len(loads) {
				t.Fatalf("%s has %d points, want %d", name, len(pts), len(loads))
			}
			if want := (scenario.SeriesPoint{X: load, V: scalar(t, cell, name)}); pts[i] != want {
				t.Fatalf("%s point %d = %+v, the standalone cell gives %+v", name, i, pts[i], want)
			}
		}
		started = append(started, scalar(t, cell, "started"))
	}
	if started[1] <= started[0] {
		t.Fatal("higher load generated fewer flows")
	}
}

func TestFairnessHomaOvercommitRuns(t *testing.T) {
	for _, oc := range []int{1, 4} {
		res := mustRun(t, Spec{Preset: Fairness{Window: 4 * sim.Millisecond},
			Scheme: scenario.Homa, SchemeOpts: []scenario.SchemeOption{scenario.Overcommit(oc)}, Seed: 3})
		if len(points(t, res, "flow1_gbps")) == 0 {
			t.Fatalf("oc %d: empty series", oc)
		}
	}
}
