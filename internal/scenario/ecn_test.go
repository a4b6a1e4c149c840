package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// rampIncast is a ten-to-one incast on a 16-host fat-tree: the
// receiver's ToR queue climbs past a megabyte, through DCQCN's
// (KMin, KMax) = (100 KB, 400 KB) ramp and back, so marking draws.
func rampIncast(scheme string) Scenario {
	return Scenario{
		Name:     "ramp-incast",
		Scheme:   mustScheme(scheme),
		Seed:     1,
		Topology: FatTreeTopology{ServersPerTor: 2},
		Traffic:  []Traffic{IncastPulse{Receiver: Host(0), FanIn: 10, FlowSize: 500_000}},
		Probes:   []Probe{AccountingProbe{}, FCTProbe{}},
		Until:    3 * sim.Millisecond,
	}
}

// runRampIncast returns the encoded Result and how many of the fabric's
// switches built their marking RNG. The field is unexported and nothing
// outside swtch should see it, so the count reads it by name: a rename
// fails here loudly, with a panic from IsNil on the zero Value.
func runRampIncast(t *testing.T, scheme string) (envelope []byte, rngs int) {
	t.Helper()
	p, err := Prepare(rampIncast(scheme))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	p.DriveTo(p.Horizon())
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range p.Env().Lab.Net.Switches {
		if !reflect.ValueOf(sw).Elem().FieldByName("rng").IsNil() {
			rngs++
		}
	}
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rngs
}

// TestMarkingRNGBuiltOnFirstDraw: a switch builds its marking RNG at the
// first probabilistic mark, not in New. The stream is the one New used
// to seed, so a DCQCN run that draws from it — the golden was recorded
// before the change — is byte-identical, and it is built only where a
// queue entered the ramp; a PowerTCP fabric, which marks nothing, builds
// none.
func TestMarkingRNGBuiltOnFirstDraw(t *testing.T) {
	got, rngs := runRampIncast(t, DCQCN)
	if rngs == 0 {
		t.Fatal("no switch drew a mark: the scenario never entered the ramp and pins nothing")
	}
	if all := 20; rngs >= all { // 8 ToRs + 8 aggs + 4 cores
		t.Errorf("%d of %d switches built an RNG; only the incast's path should", rngs, all)
	}
	path := filepath.Join("testdata", "golden", "ramp-incast-dcqcn.json")
	if os.Getenv("POWERTCP_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with POWERTCP_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("DCQCN incast drifted from recorded golden %s (%d vs %d bytes)", path, len(got), len(want))
	}

	if _, rngs := runRampIncast(t, PowerTCP); rngs != 0 {
		t.Errorf("a PowerTCP fabric built %d marking RNGs, want 0", rngs)
	}
}
