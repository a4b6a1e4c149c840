package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

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

// The composed scenarios' result envelopes at seed 1 under powertcp,
// pinned by the sha256 of `powersim -scenario <name> -json`. They reach
// the switch references (incast-failover's QueueProbe on Leaf(2) and its
// Leaf(2)–Spine(0) failure), per-class schemes and injected traffic
// through the CLI's own scenario values.
func TestComposedScenarioPins(t *testing.T) {
	pins := map[string]string{
		"incast-failover": "240a7128bb86e8bb044e28f040d50293587f948a259f879d7d4e597943eb4aff",
		"mixed-classes":   "fad8226ef33eeb4e03103bcf4115f7bc26265686ca61a41b65fa1cbf7778b9a4",
		"load-step":       "87d130dd9e13abd0efe5ecdc8ef77017b4072b65f4bb1923985be5fa4b070328",
	}
	for name, want := range pins {
		t.Run(name, func(t *testing.T) {
			r, err := runScenario(name, "powertcp", 1, "")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := r.EncodeJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("sha256 of the -json envelope = %s, want %s", got, want)
			}
		})
	}
}
