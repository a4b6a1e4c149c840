package exp

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
)

// mustRun executes a spec and fails the test on error.
func mustRun(t *testing.T, spec Spec) *scenario.Result {
	t.Helper()
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// scalar and points read what a test asserts on by name; a missing key
// fails the test instead of reading as 0.
func scalar(t *testing.T, r *scenario.Result, name string) float64 {
	t.Helper()
	v, err := r.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func points(t *testing.T, r *scenario.Result, name string) []scenario.SeriesPoint {
	t.Helper()
	s, err := r.SeriesNamed(name)
	if err != nil {
		t.Fatal(err)
	}
	return s.Points
}

func TestSchemeRegistry(t *testing.T) {
	for _, name := range scenario.Schemes {
		s, err := scenario.ResolveScheme(name)
		if err != nil {
			t.Fatalf("ResolveScheme(%q): %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("scheme %q resolved to %q", name, s.Name)
		}
		if name == scenario.Homa && (!s.IsHoma() || !s.PrioQueues) {
			t.Fatal("homa scheme misconfigured")
		}
		if name == scenario.PowerTCP && !s.INT {
			t.Fatal("powertcp requires INT")
		}
		if name == scenario.DCQCN && !s.ECN.Enabled() {
			t.Fatal("dcqcn requires ECN")
		}
		if !s.IsHoma() && s.Alg == nil {
			t.Fatalf("scheme %q has no algorithm builder", name)
		}
	}
	if oc, err := scenario.ResolveScheme("homa-oc4"); err != nil || oc.Overcommit != 4 {
		t.Fatalf("homa-oc4 = %+v, %v", oc, err)
	}
	if re, err := scenario.ResolveScheme(scenario.ReTCP1800); err != nil || re.PrebufferFor != 1800*sim.Microsecond {
		t.Fatalf("retcp-1800 = %+v, %v", re, err)
	}
}

// TestSchemeNamesSortedAndComplete pins the fixed scheme set exactly:
// a law added or removed changes this list on purpose.
func TestSchemeNamesSortedAndComplete(t *testing.T) {
	want := []string{scenario.DCQCN, scenario.DCTCP, scenario.Homa, scenario.HPCC,
		scenario.PowerTCP, scenario.Reno, scenario.ThetaPowerTCP, scenario.Timely}
	if got := scenario.SchemeNames(); !slices.Equal(got, want) {
		t.Fatalf("SchemeNames() = %v, want %v", got, want)
	}
	if !slices.IsSorted(want) {
		t.Fatalf("want list %v is not sorted", want)
	}
}

func TestIncastPowerTCPKeepsQueueShortAndThroughputHigh(t *testing.T) {
	res := mustRun(t, Spec{Preset: Incast{FanIn: 10, Window: 3 * sim.Millisecond},
		Scheme: scenario.PowerTCP, Seed: 1})
	if scalar(t, res, "fan_in") != 10 || len(points(t, res, "queue_kb")) == 0 {
		t.Fatalf("degenerate result: %+v", res.Scalars)
	}
	// Fig. 4a: the incast resolves to near-zero queue without losing
	// throughput.
	if q := scalar(t, res, "end_queue_kb"); q > 40 {
		t.Fatalf("queue did not resolve: %vKB at end", q)
	}
	if g := scalar(t, res, "avg_goodput_gbps"); g < 18 {
		t.Fatalf("receiver goodput = %vGbps, want near 25", g)
	}
	if n := scalar(t, res, "completed"); n != 10 {
		t.Fatalf("completed %v/10 incast flows", n)
	}
	if res.Experiment != "incast" || res.Scheme != scenario.PowerTCP || res.Seed != 1 {
		t.Fatalf("envelope identity wrong: %+v", res)
	}
}

func TestIncastTimelyBuildsLargerQueues(t *testing.T) {
	pt := mustRun(t, Spec{Preset: Incast{FanIn: 10, Window: 3 * sim.Millisecond},
		Scheme: scenario.PowerTCP, Seed: 1})
	tm := mustRun(t, Spec{Preset: Incast{FanIn: 10, Window: 3 * sim.Millisecond},
		Scheme: scenario.Timely, Seed: 1})
	// Fig. 4c vs 4a: TIMELY does not control the queue; its peak must
	// exceed PowerTCP's by a clear margin.
	if tm.Scalar("peak_queue_kb") < 1.5*pt.Scalar("peak_queue_kb") {
		t.Fatalf("TIMELY peak %vKB vs PowerTCP %vKB: expected ≥1.5×",
			tm.Scalar("peak_queue_kb"), pt.Scalar("peak_queue_kb"))
	}
}

func TestIncastHomaRuns(t *testing.T) {
	res := mustRun(t, Spec{Preset: Incast{FanIn: 10, Window: 3 * sim.Millisecond},
		Scheme: scenario.Homa, Seed: 1})
	if n := scalar(t, res, "completed"); n < 8 {
		t.Fatalf("HOMA completed %v/10", n)
	}
	if g := scalar(t, res, "avg_goodput_gbps"); g < 10 {
		t.Fatalf("HOMA goodput %v", g)
	}
}

func TestFairnessPowerTCPSharesEvenly(t *testing.T) {
	res := mustRun(t, Spec{Preset: Fairness{}, Scheme: scenario.PowerTCP, Seed: 2})
	if j := scalar(t, res, "jain"); j < 0.85 {
		t.Fatalf("Jain index = %v, want ≥0.85", j)
	}
	if len(points(t, res, "flow1_gbps")) == 0 || scalar(t, res, "flows") != 4 {
		t.Fatal("missing series")
	}
	if len(res.Series) != 4 {
		t.Fatalf("envelope series = %d, want one per flow", len(res.Series))
	}
}

func TestWebSearchSmokeAndOrdering(t *testing.T) {
	res := mustRun(t, Spec{Preset: WebSearch{Load: 0.15, ServersPerTor: 4,
		Duration: 4 * sim.Millisecond, Drain: 4 * sim.Millisecond},
		Scheme: scenario.PowerTCP, Seed: 3})
	if scalar(t, res, "completed") == 0 {
		t.Fatal("no flows completed")
	}
	short := scalar(t, res, "short_p999")
	if short < 1 {
		t.Fatalf("short p99.9 slowdown = %v, must be ≥1", short)
	}
	// Slowdowns are sane (not thousands at 15% load).
	if short > 50 {
		t.Fatalf("short p99.9 slowdown = %v at 15%% load", short)
	}
}

func TestWebSearchBufferCDF(t *testing.T) {
	res := mustRun(t, Spec{Preset: WebSearch{Load: 0.15, ServersPerTor: 4,
		Duration: 3 * sim.Millisecond, Drain: 2 * sim.Millisecond, SampleBuffers: true},
		Scheme: scenario.PowerTCP, Seed: 4})
	cdf := points(t, res, "buffer_cdf")
	if len(cdf) == 0 {
		t.Fatal("no buffer CDF collected")
	}
	if top := cdf[len(cdf)-1].V; top != 1 {
		t.Fatalf("CDF top = %v", top)
	}
}

// A cell whose ToR buffers never hold a byte still reports its buffer
// percentile: the key's presence follows SampleBuffers, not its value,
// so Fig. 7g prints 0 for such a cell instead of stopping.
func TestWebSearchEmptyBuffersKeepTheirKey(t *testing.T) {
	res := mustRun(t, Spec{Preset: WebSearch{Load: 0.01, ServersPerTor: 4,
		Duration: 200 * sim.Microsecond, SampleBuffers: true},
		Scheme: scenario.PowerTCP, Seed: 1})
	if p99 := scalar(t, res, "buffer_p99_bytes"); p99 != 0 {
		t.Fatalf("buffer_p99_bytes = %v, want an idle cell", p99)
	}
	if len(points(t, res, "buffer_cdf")) == 0 {
		t.Fatal("no buffer CDF collected")
	}
}

// The two Fig. 8 claims. A rotor run draws no randomness — RackPairs is
// a fixed trace and the Fig. 8 schemes mark nothing probabilistically —
// so seeds 1–5 give identical scalars and one seed is the whole sample.
func TestRDCNPowerTCPUtilizationAndLatency(t *testing.T) {
	res := mustRun(t, Spec{Preset: RDCN{Weeks: 3}, Scheme: scenario.PowerTCP, Seed: 5})
	// §5 headline: "PowerTCP achieves 85% circuit utilization" on the
	// paper's 25 Gbps packet network (the preset's default; measured
	// 0.854). The band is that claim only: at 50 Gbps it reads 0.91.
	if u := scalar(t, res, "circuit_utilization"); u < 0.80 || u > 0.90 {
		t.Fatalf("circuit utilization = %v, want the paper's 0.80–0.90", u)
	}
	if len(points(t, res, "throughput_gbps")) == 0 {
		t.Fatal("no series")
	}
}

func TestRDCNReTCPTradesLatencyForUtilization(t *testing.T) {
	// Fig. 8b: reTCP's prebuffering pays with tail queuing latency, at
	// least 5× PowerTCP's at either packet rate (measured 11.5× and 31×).
	for _, rate := range []units.BitRate{25 * units.Gbps, 50 * units.Gbps} {
		pt := mustRun(t, Spec{Preset: RDCN{Weeks: 3, PacketRate: rate}, Scheme: scenario.PowerTCP, Seed: 5})
		re := mustRun(t, Spec{Preset: RDCN{Weeks: 3, PacketRate: rate}, Scheme: scenario.ReTCP1800, Seed: 5})
		if re.Scalar("tail_queuing_us") < 5*pt.Scalar("tail_queuing_us") {
			t.Fatalf("%v: tail queuing: reTCP %vµs vs PowerTCP %vµs, expected ≥5×",
				rate, re.Scalar("tail_queuing_us"), pt.Scalar("tail_queuing_us"))
		}
		if re.Scalar("circuit_utilization") < 0.5 {
			t.Fatalf("%v: reTCP circuit utilization = %v", rate, re.Scalar("circuit_utilization"))
		}
	}
}

func TestRDCNRejectsUnsupportedScheme(t *testing.T) {
	_, err := Run(Spec{Preset: RDCN{Weeks: 1}, Scheme: scenario.Timely})
	if err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Fatalf("rdcn accepted timely: %v", err)
	}
}
