package exp

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/guard"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// crasher is a test-only preset whose run panics mid-flight — the
// injected fault for the suite isolation battery.
type crasher struct{}

func (crasher) Name() string { return "crash-test" }

func (crasher) run(int64, scenario.Scheme) (*scenario.Result, error) {
	panic("deliberate suite-isolation crash")
}

// A panic inside one spec's Run must not take down the worker pool: the
// crashing spec yields a typed *guard.PanicError in the joined error,
// its result slot stays nil, and every sibling still completes with
// byte-identical output serial vs parallel.
func TestSuiteIsolatesCrashingSpec(t *testing.T) {
	specs := func() []Spec {
		return []Spec{
			Spec{Preset: Incast{FanIn: 6, Window: sim.Millisecond},
				Scheme: scenario.PowerTCP, Seed: 11},
			{Preset: crasher{}, Scheme: scenario.PowerTCP},
			Spec{Preset: Fairness{Window: 2 * sim.Millisecond}, Scheme: scenario.PowerTCP, Seed: 2},
			Spec{Preset: WebSearch{Load: 0.15, ServersPerTor: 4, Duration: 2 * sim.Millisecond,
				Drain: sim.Millisecond},
				Scheme: scenario.PowerTCP, Seed: 3},
		}
	}
	const crashIdx = 1

	run := func(workers int) []*scenario.Result {
		su := Suite{Specs: specs(), Workers: workers}
		results, err := su.Run()
		if err == nil {
			t.Fatalf("workers=%d: suite swallowed the crash", workers)
		}
		var pe *guard.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *guard.PanicError", workers, err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic error carries no stack", workers)
		}
		for i, r := range results {
			if i == crashIdx {
				if r != nil {
					t.Fatalf("workers=%d: crashed spec produced a result", workers)
				}
				continue
			}
			if r == nil {
				t.Fatalf("workers=%d: sibling spec %d lost its result to the crash", workers, i)
			}
		}
		return results
	}

	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if i == crashIdx {
			continue
		}
		var sb, pb bytes.Buffer
		if err := serial[i].EncodeJSON(&sb); err != nil {
			t.Fatal(err)
		}
		if err := parallel[i].EncodeJSON(&pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
			t.Fatalf("spec %d: surviving result differs serial vs parallel after a sibling crash", i)
		}
	}
}
