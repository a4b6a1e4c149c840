package guard

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// crashProbe panics at a fixed sim time — the injected "model bug"
// crash class.
type crashProbe struct{ at sim.Duration }

func (p crashProbe) Install(env *scenario.Env) error {
	env.Eng().After(p.at, func() { panic("injected crash") })
	return nil
}
func (crashProbe) Finalize(*scenario.Env, *scenario.Result) error { return nil }

// livelockProbe schedules a zero-delay self-rescheduling event: the
// clock never advances past the trigger instant again.
type livelockProbe struct{ at sim.Duration }

func (p livelockProbe) Install(env *scenario.Env) error {
	eng := env.Eng()
	var spin func()
	spin = func() { eng.After(0, spin) }
	eng.After(p.at, spin)
	return nil
}
func (livelockProbe) Finalize(*scenario.Env, *scenario.Result) error { return nil }

func incastSpec() *scenario.Spec {
	for _, sp := range scenario.SpecPresets() {
		if sp.Name == "incast" {
			sp := sp
			return &sp
		}
	}
	panic("no incast preset")
}

// TestInjection is the table-driven crash/livelock/budget battery: each
// injected failure must surface as its typed error, at every partition
// count, without killing the process.
func TestInjection(t *testing.T) {
	cases := []struct {
		name  string
		sup   func() *Supervisor
		check func(t *testing.T, res *scenario.Result, err error)
	}{
		{
			name: "crash",
			sup: func() *Supervisor {
				return &Supervisor{instrument: []scenario.Probe{crashProbe{at: 100 * sim.Microsecond}}}
			},
			check: func(t *testing.T, res *scenario.Result, err error) {
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want *PanicError", err)
				}
				if !strings.Contains(pe.Error(), "injected crash") || len(pe.Stack) == 0 {
					t.Fatalf("panic error lacks value/stack: %v", pe)
				}
			},
		},
		{
			name: "livelock",
			sup: func() *Supervisor {
				return &Supervisor{
					Budget:     Budget{MaxSameInstant: 10_000},
					instrument: []scenario.Probe{livelockProbe{at: 50 * sim.Microsecond}},
				}
			},
			check: func(t *testing.T, res *scenario.Result, err error) {
				var le *LivelockError
				if !errors.As(err, &le) {
					t.Fatalf("err = %v, want *LivelockError", err)
				}
				if le.At != sim.Time(0).Add(50*sim.Microsecond) {
					t.Fatalf("stuck instant %v, want 50µs", le.At)
				}
			},
		},
		{
			name: "over-budget-events",
			sup: func() *Supervisor {
				return &Supervisor{Budget: Budget{MaxEvents: 500}}
			},
			check: func(t *testing.T, res *scenario.Result, err error) {
				var be *BudgetExceeded
				if !errors.As(err, &be) {
					t.Fatalf("err = %v, want *BudgetExceeded", err)
				}
				if be.Resource != "events" || be.Observed <= be.Limit {
					t.Fatalf("bad watermark: %+v", be)
				}
			},
		},
		{
			name: "over-budget-simtime",
			sup: func() *Supervisor {
				return &Supervisor{Budget: Budget{MaxSimTime: 100 * sim.Microsecond}}
			},
			check: func(t *testing.T, res *scenario.Result, err error) {
				var be *BudgetExceeded
				if !errors.As(err, &be) || be.Resource != "sim_time" {
					t.Fatalf("err = %v, want sim_time *BudgetExceeded", err)
				}
			},
		},
		{
			name: "over-budget-packets",
			sup: func() *Supervisor {
				return &Supervisor{Budget: Budget{MaxLivePackets: 1}}
			},
			check: func(t *testing.T, res *scenario.Result, err error) {
				var be *BudgetExceeded
				if !errors.As(err, &be) || be.Resource != "live_packets" {
					t.Fatalf("err = %v, want live_packets *BudgetExceeded", err)
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		for _, parts := range []int{1, 2} {
			parts := parts
			t.Run(tc.name, func(t *testing.T) {
				res, err := tc.sup().RunSpec(incastSpec(), parts)
				if res != nil {
					t.Fatalf("parts=%d: got a Result alongside the failure", parts)
				}
				tc.check(t, res, err)
			})
		}
	}
}

// TestBudgetPartitionInvariant: the budget watermark a trip reports is
// identical at partitions 1/2/4/8 — checkpoints are sim-time
// coordinates and the event set below a sim time is
// partition-invariant.
func TestBudgetPartitionInvariant(t *testing.T) {
	sp := incastSpec()
	var want *BudgetExceeded
	for _, parts := range []int{1, 2, 4, 8} {
		sup := &Supervisor{Budget: Budget{MaxEvents: 2000, MaxLivePackets: 0}}
		_, err := sup.RunSpec(sp, parts)
		var be *BudgetExceeded
		if !errors.As(err, &be) {
			t.Fatalf("parts=%d: err = %v, want *BudgetExceeded", parts, err)
		}
		if want == nil {
			want = be
			continue
		}
		if !reflect.DeepEqual(want, be) {
			t.Errorf("budget accounting diverges at parts=%d:\n  parts=1 %+v\n  parts=%d %+v", parts, want, parts, be)
		}
	}
}

// TestTripByteReproducible: the same over-budget run twice gives
// deep-equal errors; and a livelock trip pins the same stuck instant
// and canonical key both times.
func TestTripByteReproducible(t *testing.T) {
	run := func() error {
		sup := &Supervisor{Budget: Budget{MaxEvents: 1500}}
		_, err := sup.RunSpec(incastSpec(), 1)
		return err
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("budget trip not reproducible:\n  %v\n  %v", a, b)
	}
	lrun := func() *LivelockError {
		sup := &Supervisor{
			Budget:     Budget{MaxSameInstant: 5000},
			instrument: []scenario.Probe{livelockProbe{at: 30 * sim.Microsecond}},
		}
		_, err := sup.RunSpec(incastSpec(), 1)
		var le *LivelockError
		if !errors.As(err, &le) {
			t.Fatalf("err = %v, want *LivelockError", err)
		}
		return le
	}
	if a, b := lrun(), lrun(); !reflect.DeepEqual(a, b) {
		t.Errorf("livelock trip not reproducible:\n  %+v\n  %+v", a, b)
	}
}

// TestSupervisedBytesIdentical: a supervised run that stays within
// budget produces byte-identical Result JSON to the unsupervised path,
// serial and partitioned.
func TestSupervisedBytesIdentical(t *testing.T) {
	sp := incastSpec()
	encode := func(res *scenario.Result) string {
		var b strings.Builder
		if err := res.EncodeJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	sc, err := sp.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(plain)
	for _, parts := range []int{1, 2} {
		sup := &Supervisor{Budget: Budget{MaxEvents: 1 << 40, MaxLivePackets: 1 << 40, CheckEvery: 20 * sim.Microsecond}}
		res, err := sup.RunSpec(sp, parts)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if got := encode(res); got != want {
			t.Errorf("parts=%d: supervised Result differs from unsupervised:\n got %s\nwant %s", parts, got, want)
		}
	}

	// A rotor fabric is a lab like any other, so it is supervised like
	// any other: sliced drives, step and live-packet watermarks. It has no
	// Spec form yet, so it goes through RunScenario.
	rotor := func() scenario.Scenario {
		scheme, err := scenario.ResolveScheme(scenario.ReTCP600)
		if err != nil {
			t.Fatal(err)
		}
		return scenario.Scenario{
			Name: "rotor", Scheme: scheme, Seed: 1,
			Topology: scenario.RotorTopology{Tors: 4, ServersPerTor: 2, Weeks: 2},
			Traffic: []scenario.Traffic{scenario.RackPairs{
				FromRack: scenario.RackStart(0), ToRack: scenario.RackStart(1)}},
			Probes: []scenario.Probe{scenario.AccountingProbe{}, scenario.FCTProbe{}},
		}
	}
	plain, err = scenario.Run(rotor())
	if err != nil {
		t.Fatal(err)
	}
	sup := &Supervisor{Budget: Budget{MaxEvents: 1 << 40, MaxLivePackets: 1 << 40, CheckEvery: 20 * sim.Microsecond}}
	res, err := sup.RunScenario(rotor())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encode(res), encode(plain); got != want {
		t.Errorf("rotor: supervised Result differs from unsupervised:\n got %s\nwant %s", got, want)
	}
	// And its packets come from the pool the budget watches.
	tight := &Supervisor{Budget: Budget{MaxLivePackets: 1, CheckEvery: 20 * sim.Microsecond}}
	var be *BudgetExceeded
	if _, err := tight.RunScenario(rotor()); !errors.As(err, &be) {
		t.Errorf("rotor under a one-packet budget: %v, want BudgetExceeded", err)
	}
}

// TestReproBundle: a supervised failure with ReproDir set writes a
// replayable bundle whose embedded Spec decodes to the same content
// address, and the typed error carries the path.
func TestReproBundle(t *testing.T) {
	dir := t.TempDir()
	sup := &Supervisor{
		ReproDir:   dir,
		instrument: []scenario.Probe{crashProbe{at: 100 * sim.Microsecond}},
	}
	sp := incastSpec()
	_, err := sup.RunSpec(sp, 2)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Bundle == "" {
		t.Fatal("panic error carries no bundle path")
	}
	raw, err := os.ReadFile(pe.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	var bundle ReproBundle
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatal(err)
	}
	if bundle.Parts != 2 || bundle.Seed != sp.Seed || !strings.Contains(bundle.Error, "injected crash") {
		t.Fatalf("bundle misrecords the run: %+v", bundle)
	}
	back, err := scenario.DecodeSpec(bundle.Spec)
	if err != nil {
		t.Fatalf("bundle spec does not decode: %v", err)
	}
	wantKey, _ := scenario.SpecKey(sp, sp.Seed, 2)
	gotKey, _ := scenario.SpecKey(back, bundle.Seed, bundle.Parts)
	if gotKey != wantKey {
		t.Fatalf("bundle replays a different run: key %s, want %s", gotKey, wantKey)
	}
	if want := "repro-" + wantKey[:16] + ".json"; filepath.Base(pe.Bundle) != want {
		t.Fatalf("bundle is named %s, want %s after its key", filepath.Base(pe.Bundle), want)
	}
}

// TestCaptureTransparent: Capture passes healthy results through
// untouched and never recovers anything but panics.
func TestCaptureTransparent(t *testing.T) {
	want := &scenario.Result{Experiment: "x"}
	res, err := Capture(func() (*scenario.Result, error) { return want, nil })
	if res != want || err != nil {
		t.Fatalf("Capture altered a healthy run: %v, %v", res, err)
	}
	sentinel := errors.New("boom")
	if _, err := Capture(func() (*scenario.Result, error) { return nil, sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Capture rewrote a plain error: %v", err)
	}
}
