package main

import "testing"

// The hybrid contract, on a deterministic quantity: with the websearch
// background integrated as a fluid aggregate, hybrid-websearch executes
// at least 100× fewer engine events than the same scenario at packet
// fidelity (217× when recorded in EXPERIMENTS.md), and the three
// packet-fidelity foreground flows still complete.
func TestHybridWebsearchFluidCutsEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("the packet-fidelity leg runs 5.6M events")
	}
	steps := map[string]float64{}
	for _, fidelity := range []string{"packet", "fluid"} {
		r, err := runScenario("hybrid-websearch", "powertcp", 1, fidelity)
		if err != nil {
			t.Fatal(err)
		}
		if r.Scalar("completed") < 3 {
			t.Fatalf("%s: %v flows completed, want the three foreground flows", fidelity, r.Scalar("completed"))
		}
		steps[fidelity] = r.Scalar("engine_steps")
	}
	if ratio := steps["packet"] / steps["fluid"]; ratio < 100 {
		t.Fatalf("engine_steps packet/fluid = %.0f/%.0f = %.1f×, want ≥ 100×", steps["packet"], steps["fluid"], ratio)
	}
}
