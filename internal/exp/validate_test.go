package exp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
)

// outOfDomain assigns, per preset field name, one value outside its
// domain on a preset that has the field. want is how the rejecting layer
// names the value: the preset's own field where the preset consumes it,
// the scenario component's field where it is handed down (Flows becomes
// a RackPairs Count, Duration a generation Horizon, the Incast* overlay
// an IncastRequests, Tors the rotor topology's ToR count).
// SampleBuffers is the one field with no possible invalid value (a
// bool), so it is deliberately absent; the coverage loop below pins
// that every other field has a negative case here.
var outOfDomain = []struct {
	field  string
	preset Preset
	want   string
}{
	{"ServersPerTor", Incast{ServersPerTor: -4}, "ServersPerTor -4"},
	{"Tors", RDCN{Tors: -1}, "ToRs (0 keeps the default), got -1"},
	{"Partitions", Incast{Partitions: -2}, "Partitions -2"},
	{"FanIn", Incast{FanIn: -8}, "FanIn"},
	{"Flows", Failover{Flows: -2}, "Count -2"},
	{"Load", WebSearch{Load: 1.5}, "Load 1.5"},
	{"IncastRate", WebSearch{IncastRate: -100, IncastSize: 1 << 20}, "RequestRate -100"},
	{"IncastSize", WebSearch{IncastRate: 100, IncastSize: -1}, "RequestSize -1"},
	{"PacketRate", RDCN{PacketRate: -10 * units.Gbps}, "packet rate"},
	{"Weeks", RDCN{Weeks: -1}, "Weeks"},
	{"Routing", Permutation{Routing: "spray"}, "spray"},
	{"FailAfter", Failover{FailAfter: -sim.Millisecond}, "failure at negative time"},
	{"RestoreAfter", Failover{RestoreAfter: -2 * sim.Millisecond}, "restore at negative time"},
	{"Reconverge", Failover{Reconverge: -sim.Microsecond}, "reconvergence"},
	{"Window", Incast{Window: -sim.Millisecond}, "Window"},
	{"Duration", WebSearch{Duration: -sim.Millisecond}, "Horizon"},
	{"Drain", WebSearch{Drain: -sim.Millisecond}, "Drain"},
}

// TestValidateRejectsOutOfDomainValues pins a negative case for every
// preset field: a value outside the field's domain must fail Run with an
// error naming it — from the scenario component that reads the value, or
// from the preset where the preset itself does.
func TestValidateRejectsOutOfDomainValues(t *testing.T) {
	cased := map[string]bool{}
	for _, c := range outOfDomain {
		cased[c.field] = true
		if _, ok := reflect.TypeOf(c.preset).FieldByName(c.field); !ok {
			t.Errorf("%s: preset %s has no such field", c.field, c.preset.Name())
			continue
		}
		_, err := Run(Spec{Preset: c.preset, Scheme: scenario.PowerTCP, Seed: 1})
		if err == nil {
			t.Errorf("%s: accepted an out-of-domain %s", c.preset.Name(), c.field)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s/%s: error does not name %q: %v", c.preset.Name(), c.field, c.want, err)
		}
	}
	// Every field of every preset except the boolean must carry a case.
	for _, p := range presets {
		typ := reflect.TypeOf(p)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() != reflect.Bool && !cased[f.Name] {
				t.Errorf("%s.%s has no out-of-domain case", typ.Name(), f.Name)
			}
		}
	}
	// The KeepLinkDown sentinel is the one negative duration with a
	// meaning; it must keep running.
	if _, err := Run(Spec{Preset: Failover{ServersPerTor: 4, Flows: 2, RestoreAfter: KeepLinkDown,
		Window: 2 * sim.Millisecond}, Scheme: scenario.PowerTCP, Seed: 1}); err != nil {
		t.Errorf("KeepLinkDown rejected: %v", err)
	}
}
