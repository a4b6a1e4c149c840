package exp

import (
	"bytes"
	"testing"

	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The whole simulator must be deterministic: identical seeds produce
// byte-identical experiment results (the paper's artifact property this
// repository leans on for regression testing).
func TestIncastDeterminism(t *testing.T) {
	run := func() *scenario.Result {
		return mustRun(t, Spec{Preset: Incast{FanIn: 10, Window: 2 * sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 7})
	}
	a, b := run(), run()
	for _, name := range []string{"throughput_gbps", "queue_kb"} {
		pa, pb := points(t, a, name), points(t, b, name)
		if len(pa) != len(pb) {
			t.Fatalf("%s: sample counts differ: %d vs %d", name, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s diverged at %d: %+v vs %+v", name, i, pa[i], pb[i])
			}
		}
	}
	if scalar(t, a, "completed") != scalar(t, b, "completed") ||
		scalar(t, a, "peak_queue_kb") != scalar(t, b, "peak_queue_kb") {
		t.Fatal("summary metrics diverged")
	}
}

func TestWebSearchDeterminismAcrossSchemesIsolated(t *testing.T) {
	// Two runs of the same scheme agree; a different scheme still sees
	// the same workload trace (same Started count) because workload
	// randomness is seeded independently of the CC scheme.
	spec := func(scheme string) Spec {
		return Spec{Preset: WebSearch{Load: 0.15, ServersPerTor: 4,
			Duration: 2 * sim.Millisecond, Drain: 2 * sim.Millisecond}, Scheme: scheme, Seed: 9}
	}
	a := mustRun(t, spec(scenario.PowerTCP))
	b := mustRun(t, spec(scenario.PowerTCP))
	if scalar(t, a, "completed") != scalar(t, b, "completed") ||
		scalar(t, a, "short_p999") != scalar(t, b, "short_p999") {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Scalars, b.Scalars)
	}
	c := mustRun(t, spec(scenario.HPCC))
	if cs, as := scalar(t, c, "started"), scalar(t, a, "started"); cs != as {
		t.Fatalf("workload trace depends on scheme: %v vs %v flows", cs, as)
	}
}

func TestSeedChangesWorkload(t *testing.T) {
	spec := func(seed int64) Spec {
		return Spec{Preset: WebSearch{Load: 0.15, ServersPerTor: 4, Duration: 2 * sim.Millisecond,
			Drain: sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: seed}
	}
	a := mustRun(t, spec(1))
	b := mustRun(t, spec(2))
	if scalar(t, a, "started") == scalar(t, b, "started") &&
		scalar(t, a, "short_p999") == scalar(t, b, "short_p999") {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

// A parallel suite run must be byte-identical to a serial run of the
// same specs at the same seeds: every run owns an isolated engine, so
// worker count and scheduling cannot leak into results. This is the
// property that makes the worker pool safe to use for figure
// regeneration.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	specs := func() []Spec {
		var out []Spec
		for _, scheme := range []string{scenario.PowerTCP, scenario.ThetaPowerTCP, scenario.HPCC, scenario.Timely, scenario.Homa} {
			out = append(out, Spec{Preset: Incast{FanIn: 6, Window: sim.Millisecond},
				Scheme: scheme, Seed: 11})
		}
		for _, seed := range []int64{1, 2} {
			out = append(out, Spec{Preset: Fairness{Window: 2 * sim.Millisecond},
				Scheme: scenario.PowerTCP, Seed: seed})
		}
		out = append(out, Spec{Preset: WebSearch{Load: 0.15, ServersPerTor: 4,
			Duration: 2 * sim.Millisecond, Drain: sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 3})
		// The multipath lab: hashing, weighted tables, and scheduled link
		// failures must all be worker-count independent too.
		for _, routing := range []string{"ecmp", "wecmp"} {
			out = append(out, Spec{Preset: Permutation{Routing: routing, ServersPerTor: 4,
				Window: sim.Millisecond},
				Scheme: scenario.PowerTCP, Seed: 13})
		}
		out = append(out,
			Spec{Preset: Asymmetry{Routing: "wecmp", ServersPerTor: 4, Window: sim.Millisecond},
				Scheme: scenario.PowerTCP, Seed: 13},
			Spec{Preset: Failover{ServersPerTor: 4, Flows: 2, Window: 3 * sim.Millisecond},
				Scheme: scenario.PowerTCP, Seed: 13})
		// Wheel-engine stress (PR 4): failure/restore schedules a few
		// milliseconds out live in the wheel's coarsest level and cascade
		// down across many level-0/1 rotations before firing, and the
		// timing must still be byte-exact under any worker count. One
		// cell also routes single-path so reconvergence rebuilds tables
		// from the arena mid-run.
		out = append(out,
			Spec{Preset: Failover{ServersPerTor: 4, Flows: 2, FailAfter: 2 * sim.Millisecond,
				RestoreAfter: 5 * sim.Millisecond, Reconverge: 400 * sim.Microsecond, Window: 7 * sim.Millisecond},
				Scheme: scenario.PowerTCP, Seed: 17},
			Spec{Preset: Failover{ServersPerTor: 4, Flows: 2, Routing: "single",
				FailAfter: 1500 * sim.Microsecond, RestoreAfter: KeepLinkDown, Window: 4 * sim.Millisecond},
				Scheme: scenario.HPCC, Seed: 17})
		return out
	}

	serialSuite := Suite{Specs: specs(), Workers: 1}
	serial, err := serialSuite.Run()
	if err != nil {
		t.Fatal(err)
	}
	parallelSuite := Suite{Specs: specs(), Workers: 8}
	parallel, err := parallelSuite.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		var sb, pb bytes.Buffer
		if err := serial[i].EncodeJSON(&sb); err != nil {
			t.Fatal(err)
		}
		if err := parallel[i].EncodeJSON(&pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
			t.Fatalf("spec %d: parallel result differs from serial\nserial:   %.200s\nparallel: %.200s",
				i, sb.String(), pb.String())
		}
	}
}

// Packet pooling is an allocation strategy, not a model change: a suite
// covering every experiment family must produce byte-identical encoded
// results with the free lists disabled. This is the guardrail for the
// zero-allocation hot path — any pooled packet or INT slice that is still
// referenced after Put would corrupt a run and diverge here.
func TestSuitePooledMatchesUnpooled(t *testing.T) {
	specs := func() []Spec {
		var out []Spec
		for _, scheme := range []string{scenario.PowerTCP, scenario.HPCC, scenario.Timely, scenario.DCQCN, scenario.Reno, scenario.Homa} {
			out = append(out, Spec{Preset: Incast{FanIn: 6, Window: sim.Millisecond},
				Scheme: scheme, Seed: 5})
		}
		out = append(out, Spec{Preset: Fairness{Window: 2 * sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 5})
		out = append(out, Spec{Preset: WebSearch{Load: 0.15, ServersPerTor: 4,
			Duration: 2 * sim.Millisecond, Drain: sim.Millisecond},
			Scheme: scenario.PowerTCP, Seed: 5})
		out = append(out, Spec{Preset: RDCN{Tors: 4}, Scheme: scenario.PowerTCP, Seed: 5})
		return out
	}

	pooledSuite := Suite{Specs: specs(), Workers: 1}
	pooled, err := pooledSuite.Run()
	if err != nil {
		t.Fatal(err)
	}

	packet.SetPooling(false)
	defer packet.SetPooling(true)
	unpooledSuite := Suite{Specs: specs(), Workers: 1}
	unpooled, err := unpooledSuite.Run()
	if err != nil {
		t.Fatal(err)
	}

	if len(pooled) != len(unpooled) {
		t.Fatalf("result counts differ: %d vs %d", len(pooled), len(unpooled))
	}
	for i := range pooled {
		var pb, ub bytes.Buffer
		if err := pooled[i].EncodeJSON(&pb); err != nil {
			t.Fatal(err)
		}
		if err := unpooled[i].EncodeJSON(&ub); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb.Bytes(), ub.Bytes()) {
			t.Fatalf("spec %d (%s/%s): pooled result differs from unpooled\npooled:   %.300s\nunpooled: %.300s",
				i, pooled[i].Experiment, pooled[i].Scheme, pb.String(), ub.String())
		}
	}
}

// Engine recycling is an allocation strategy, not a model change: a lab
// released at the end of a run hands its engine (Reset) and packet free
// list to the next run via the scratch pool, and the recycled run must
// be byte-identical to the first. The failover spec is the sharp case —
// its runs end with events still pending (RTOs, restore schedules), so
// Reset's discard path runs every repetition.
func TestWheelEngineRecycleDeterminism(t *testing.T) {
	spec := Spec{Preset: Failover{ServersPerTor: 4, Flows: 2, FailAfter: sim.Millisecond,
		RestoreAfter: 3 * sim.Millisecond, Window: 5 * sim.Millisecond},
		Scheme: scenario.PowerTCP, Seed: 21}
	var first []byte
	for i := 0; i < 3; i++ {
		r, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = append([]byte(nil), buf.Bytes()...)
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("run %d on a recycled engine diverged from the first run", i)
		}
	}
}

// Suite errors: a bad spec reports its index without sinking the rest.
func TestSuitePartialFailure(t *testing.T) {
	suite := NewSuite(
		Spec{Preset: Incast{FanIn: 4, Window: sim.Millisecond}, Scheme: scenario.PowerTCP, Seed: 1},
		Spec{Preset: Incast{}, Scheme: "bogus"},
	)
	results, err := suite.Run()
	if err == nil {
		t.Fatal("bad spec did not error")
	}
	if results[0] == nil {
		t.Fatal("good spec did not run")
	}
	if results[1] != nil {
		t.Fatal("bad spec produced a result")
	}
}
