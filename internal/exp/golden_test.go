package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
)

// goldenSpecs is one representative seed-1 spec per registered
// experiment. The encoded results are recorded in testdata/golden/ by
// running the suite with POWERTCP_UPDATE_GOLDEN=1; the committed files
// were produced by the pre-scenario (PR 4) per-runner code, so this test
// pins the scenario redesign to byte-identical figure outputs.
func goldenSpecs() []Spec {
	return []Spec{
		Spec{Preset: Incast{FanIn: 10, Window: 2 * sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 1},
		Spec{Preset: Fairness{Window: 3 * sim.Millisecond}, Scheme: scenario.PowerTCP, Seed: 1},
		Spec{Preset: WebSearch{Load: 0.15, ServersPerTor: 4, Duration: 2 * sim.Millisecond,
			Drain: sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 1},
		Spec{Preset: RDCN{Tors: 4, Weeks: 2, PacketRate: 25 * units.Gbps},
			Scheme: scenario.PowerTCP, Seed: 1},
		Spec{Preset: Permutation{Routing: "ecmp", ServersPerTor: 4, Window: sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 1},
		Spec{Preset: Asymmetry{Routing: "wecmp", ServersPerTor: 4, Window: sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 1},
		Spec{Preset: Failover{ServersPerTor: 4, Flows: 2, Window: 3 * sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 1},
	}
}

// TestGoldenCompatibility runs every registered experiment at seed 1 and
// compares the encoded JSON byte-for-byte against the recorded
// pre-redesign outputs. Regenerate with POWERTCP_UPDATE_GOLDEN=1 — but
// only when a change is *meant* to alter figure output. It also decodes
// each golden and requires it to equal the in-process Result: what
// powersimd serves is the whole result, so a figure drawn from it is
// the figure drawn in process.
func TestGoldenCompatibility(t *testing.T) {
	specs := goldenSpecs()

	// Every registered experiment must be covered, so a new experiment
	// cannot ship without a recorded golden.
	covered := map[string]bool{}
	for _, s := range specs {
		covered[s.Preset.Name()] = true
	}
	for _, name := range ExperimentNames() {
		if !covered[name] {
			t.Errorf("experiment %q has no golden spec", name)
		}
	}

	for _, spec := range specs {
		r, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Preset.Name(), err)
		}
		var buf bytes.Buffer
		if err := r.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden", spec.Preset.Name()+".json")
		if !checkGolden(t, path, buf.Bytes()) {
			continue
		}
		var served scenario.Result
		if err := json.Unmarshal(buf.Bytes(), &served); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !reflect.DeepEqual(&served, r) {
			t.Errorf("%s: the decoded golden is not the in-process Result", spec.Preset.Name())
		}
	}
}

// checkGolden compares got byte for byte with the golden file at path,
// or writes it there under POWERTCP_UPDATE_GOLDEN. It reports whether
// the golden was compared (false: written, missing or different).
func checkGolden(t *testing.T, path string, got []byte) bool {
	t.Helper()
	if os.Getenv("POWERTCP_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return false
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("missing golden (run with POWERTCP_UPDATE_GOLDEN=1): %v", err)
		return false
	}
	if !bytes.Equal(want, got) {
		t.Errorf("seed output differs from recorded golden %s (%d vs %d bytes)", path, len(got), len(want))
		return false
	}
	return true
}
