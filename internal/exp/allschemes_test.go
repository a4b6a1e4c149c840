package exp

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
)

// Every registered scheme must survive the incast scenario end-to-end:
// flows complete, the receiver keeps moving bytes, and the run is
// deterministic enough to summarize. This guards the whole
// scheme-to-switch-feature wiring (INT, ECN, priority queues). The runs
// execute as one parallel suite — the same path cmd/figures uses.
//
// Each scheme's encoded Result is also pinned byte for byte in
// testdata/golden/schemes/<scheme>.json, so a wrong constant in any
// law fails here; reTCP, which runs only on the rotor fabric, is pinned
// through one small RDCN cell. Regenerate with POWERTCP_UPDATE_GOLDEN=1,
// only when a change is meant to alter a law's output.
func TestEverySchemeRunsIncast(t *testing.T) {
	schemes := append([]string{}, scenario.Schemes...)
	schemes = append(schemes, scenario.DCTCP, scenario.Reno, "homa-oc3")
	var specs []Spec
	for _, sc := range schemes {
		// 8 ms gives even the slow starters (Reno from 10 MSS,
		// TIMELY's additive recovery) time to move 500 KB each.
		specs = append(specs, Spec{Preset: Incast{FanIn: 6, Window: 8 * sim.Millisecond},
			Scheme: sc, Seed: 11})
	}
	specs = append(specs, Spec{Preset: RDCN{Tors: 4, Weeks: 2, PacketRate: 25 * units.Gbps},
		Scheme: scenario.ReTCP600, Seed: 11})
	results, err := NewSuite(specs...).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range schemes {
		r := results[i]
		if g := scalar(t, r, "avg_goodput_gbps"); g < 2 {
			t.Fatalf("%s: goodput %.1f Gbps", sc, g)
		}
		if n := scalar(t, r, "completed"); n < 4 {
			t.Fatalf("%s: only %v/6 incast flows completed", sc, n)
		}
		if len(points(t, r, "queue_kb")) == 0 {
			t.Fatalf("%s: no samples", sc)
		}
	}
	for i, spec := range specs {
		var buf bytes.Buffer
		if err := results[i].EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("testdata", "golden", "schemes", spec.Scheme+".json"), buf.Bytes())
	}
}
